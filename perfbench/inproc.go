package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"time"

	"powerchop"
	"powerchop/internal/obs/span"
	"powerchop/internal/rescache"
	"powerchop/internal/workload"
)

// inproc drives one in-process workload (figures or tune): a cold call
// into an empty result cache, then warm repeats of the same call from
// that cache for the steady window. Every output is checked against its
// recorded digest, and the warm outputs must equal the cold one.
type inproc struct {
	r     *run
	what  string
	want  string
	cache *rescache.Cache
	spans *spanLog     // traced runs only
	prog  *progressLog // traced runs only
	// call performs one timed operation under ctx and returns a function
	// that encodes its result into the checked output, so encoding stays
	// outside the timing.
	call func(ctx context.Context) (func() ([]byte, error), error)
}

// once runs one timed operation, under a benchmark root span when
// traced, and returns its duration and the root span's ID.
func (w *inproc) once(label string) (time.Duration, uint64, error) {
	ctx := context.Background()
	var root *span.Span
	if w.spans != nil {
		ctx, root = w.spans.root(ctx, "bench."+w.what, "phase="+label)
	}
	t0 := time.Now()
	encode, err := w.call(ctx)
	d := time.Since(t0)
	root.EndErr(err)
	if err == nil {
		var out []byte
		if out, err = encode(); err == nil {
			err = match(w.what, w.want, out)
		}
	}
	return d, root.ID(), err
}

// exec runs the cold operation and the steady phase, setting cold_s and
// the steady metrics, and returns the cold operation's root span ID.
func (w *inproc) exec() (time.Duration, uint64) {
	r := w.r
	cold, coldRoot, err := w.once("cold")
	r.op(w.what+" cold", err)
	r.set("cold_s", cold.Seconds(), "s")

	st := steady{}
	t0 := time.Now()
	window := time.Duration(r.cfg.seconds * float64(time.Second))
	for time.Since(t0) < window {
		d, _, err := w.once("warm")
		ok := r.op(w.what+" warm", err)
		st.samples = append(st.samples, sample{lat: d.Seconds(), end: time.Since(t0).Seconds(), failed: !ok, repeat: true})
	}
	st.window = time.Since(t0)
	st.report(r)
	// Every cold run is new; every warm operation repeats the cold one.
	r.note("repeat_share_cold", 0.0)
	r.note("repeat_share_steady", 1.0)
	return cold, coldRoot
}

// finishInproc sets the end-to-end memory metric and, when traced, the
// span, cache and layer metrics of an in-process workload.
func (w *inproc) finish(cold time.Duration, coldRoot uint64, benches []string, runLen func(schedule int) uint64) error {
	r := w.r
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MB")
	if w.spans == nil {
		return nil
	}
	spans := w.spans.tree()
	coldSpans := under(spans, func(s *spanRec) bool { return s.id == coldRoot })
	printSpanTable(r.out, "cold", coldSpans)
	setRunnerMetrics(r, coldSpans, cold, r.nproc)
	st := w.cache.Stats()
	r.set("rescache.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio")
	r.set("rescache.stores", float64(st.Stores), "count")
	r.set("rescache.bypass", float64(st.Bypass), "count")
	r.set("rescache.disk_mb", dirMB(w.cache.Dir()), "MB")
	if err := replayLayers(r, benches, runLen); err != nil {
		return err
	}
	return httpProbe(r)
}

// allBenchmarks lists every benchmark, in suite order.
func allBenchmarks() []string {
	var out []string
	for _, b := range workload.All() {
		out = append(out, b.Name)
	}
	return out
}

// runFigures is the figures workload: a cold RenderAll of the whole
// figure set at the shortest run length into an empty result cache,
// then warm RenderAlls from the same cache directory, each by a fresh
// FigureRunner as a new `powerchop all` would.
func runFigures(r *run) error {
	if err := measureSetup(r); err != nil {
		return err
	}
	scale := figuresScale(r.cfg.seed)
	r.note("scale", scale)
	r.note("jobs", r.nproc)
	w := &inproc{r: r, what: "figures", want: r.golden.Figures,
		cache: rescache.New(filepath.Join(r.dir, "cache"), nil)}
	if r.cfg.trace {
		w.spans, w.prog = newSpanLog(), newProgressLog()
	}
	w.call = func(ctx context.Context) (func() ([]byte, error), error) {
		opts := []powerchop.FigureOption{powerchop.WithJobs(r.nproc), powerchop.WithCache(w.cache)}
		if w.prog != nil {
			opts = append(opts, powerchop.WithProgress(w.prog.update))
		}
		var buf bytes.Buffer
		err := powerchop.NewFigureRunner(scale, opts...).RenderAllContext(ctx, &buf)
		return func() ([]byte, error) { return buf.Bytes(), nil }, err
	}
	cold, root := w.exec()
	if w.prog != nil {
		r.set("runner.queue_wait_ms", mean(w.prog.waits), "ms")
		r.note("queue_wait_samples", len(w.prog.waits))
	}
	// One schedule pass per run: the runner's floor.
	return w.finish(cold, root, allBenchmarks(), func(s int) uint64 { return uint64(s) })
}

// runTune is the tune workload: a cold, batched Tune of the powerchop
// policy over its default grid on the seed's two benchmarks into an
// empty result cache, then warm Tunes of the same sweep from that cache.
func runTune(r *run) error {
	if err := measureSetup(r); err != nil {
		return err
	}
	benches := tunePair(r.cfg.seed)
	r.note("benchmarks", benches)
	r.note("jobs", r.nproc)
	w := &inproc{r: r, what: "tune " + pairKey(benches), want: r.golden.Tune[pairKey(benches)],
		cache: rescache.New(filepath.Join(r.dir, "cache"), nil)}
	if r.cfg.trace {
		w.spans = newSpanLog()
	}
	w.call = func(ctx context.Context) (func() ([]byte, error), error) {
		res, err := tune(ctx, benches, powerchop.Options{Parallelism: r.nproc, Cache: w.cache})
		return func() ([]byte, error) { return json.Marshal(res) }, err
	}
	cold, root := w.exec()
	if w.spans != nil {
		// The sweep hands groups to its workers in order; a group's wait
		// is from the sweep's start to its own simbatch span's start.
		spans := under(w.spans.tree(), func(s *spanRec) bool { return s.id == root })
		var waits []float64
		for _, s := range spans {
			if s.name == "simbatch" {
				waits = append(waits, (s.start-spans[0].start)/1000)
			}
		}
		r.set("runner.queue_wait_ms", mean(waits), "ms")
		r.note("queue_wait_samples", len(waits))
	}
	// Tune runs at the default length of two schedule passes.
	return w.finish(cold, root, benches, func(s int) uint64 { return uint64(2 * float64(s)) })
}
