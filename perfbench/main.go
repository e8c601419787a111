// Command perfbench is the repository benchmark: it runs one workload
// against the powerchop library and the powerchop serve binary, checks
// every output against recorded digests, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (cold_s, warm_s,
// p50_ms, ...); with -trace 1 the run is traced and the metrics are the
// per-layer ones (cache.*, bpu.*, walker.*, ...). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// config is the parsed command line.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	powerchop string
	work      string
	golden    string
	killAfter time.Duration
	probe     string
	regen     string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark invocation's state: its configuration, its
// private scratch directory, operation accounting, metrics and metadata.
type run struct {
	cfg    config
	nproc  int
	dir    string
	golden *golden
	out    io.Writer

	mu        sync.Mutex
	attempted int
	failed    int
	metrics   map[string]metric
	meta      map[string]any

	// inflight and peakWorkers count perfbench's own concurrent
	// workers (client connections or in-process jobs) to prove the
	// nproc bound.
	inflight    atomic.Int64
	peakWorkers atomic.Int64
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if cfg.probe != "" {
		if err := setupProbe(cfg); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	if cfg.regen != "" {
		if err := regenGolden(cfg, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	r, err := newRun(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	var body func(*run) error
	switch cfg.workload {
	case "figures":
		body = runFigures
	case "tune":
		body = runTune
	case "serve":
		body = runServe
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (figures, tune, serve)\n", cfg.workload)
		return 2
	}
	if err := body(r); err != nil {
		// An environment fault (missing binary, unwritable directory):
		// no measurement happened, so no result line is printed.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := r.finish(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	var traceN int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "figures", "workload: figures, tune or serve")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the measured steady phase in seconds")
	fs.IntVar(&traceN, "trace", 0, "1 runs traced and reports per-layer metrics")
	fs.StringVar(&c.powerchop, "powerchop", ".bench_build/bin/powerchop", "powerchop binary for the serve workload")
	fs.StringVar(&c.work, "work", ".bench_build/work", "scratch directory")
	fs.StringVar(&c.golden, "golden", "", "digest file overriding the embedded golden.json")
	fs.DurationVar(&c.killAfter, "kill-server-after", 0, "kill the server this long into the serve loop (fault test)")
	fs.StringVar(&c.probe, "setup-probe", "", "internal: perform one workload set-up and exit")
	fs.StringVar(&c.regen, "regen-golden", "", "record output digests of this build into the given file")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = traceN != 0
	if c.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return c, fmt.Errorf("bad -seconds")
	}
	return c, nil
}

func newRun(cfg config, out io.Writer) (*run, error) {
	g, err := loadGolden(cfg.golden)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	r := &run{
		cfg:     cfg,
		nproc:   nproc,
		dir:     dir,
		golden:  g,
		out:     out,
		metrics: map[string]metric{},
		meta:    map[string]any{},
	}
	r.note("workload", cfg.workload)
	r.note("seed", cfg.seed)
	r.note("seconds", cfg.seconds)
	r.note("traced", cfg.trace)
	r.note("nproc", nproc)
	r.note("gomaxprocs", runtime.GOMAXPROCS(0))
	r.note("go_version", runtime.Version())
	return r, nil
}

// set records a metric; which set is printed depends on -trace.
func (r *run) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// note records run metadata, printed on the "meta" line.
func (r *run) note(key string, v any) {
	r.mu.Lock()
	r.meta[key] = v
	r.mu.Unlock()
}

// op counts one attempted operation; a non-nil err makes it a failure.
func (r *run) op(what string, err error) bool {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
	}
	r.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
	return err == nil
}

// worker brackets one unit of perfbench's concurrency (a client
// connection in use, an in-process job) and tracks the peak.
func (r *run) worker() func() {
	n := r.inflight.Add(1)
	for {
		p := r.peakWorkers.Load()
		if n <= p || r.peakWorkers.CompareAndSwap(p, n) {
			break
		}
	}
	return func() { r.inflight.Add(-1) }
}

// endToEnd names the metrics an untraced run prints, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"warm_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer names the metrics a traced run prints, with units.
var perLayer = []struct{ name, unit string }{
	{"cache.l1.ns_per_access", "ns"},
	{"cache.mlc.ns_per_access", "ns"},
	{"cache.mlc_gated.ns_per_access", "ns"},
	{"cache.clone_us", "us"},
	{"cache.l1.hit_ratio", "ratio"},
	{"cache.mlc.hit_ratio", "ratio"},
	{"cache.mlc.writebacks", "count"},
	{"bpu.small.ns_per_access", "ns"},
	{"bpu.large.ns_per_access", "ns"},
	{"bpu.small.correct_ratio", "ratio"},
	{"bpu.large.correct_ratio", "ratio"},
	{"walker.ns_per_translation", "ns"},
	{"walker.ns_per_address", "ns"},
	{"walker.ns_per_branch", "ns"},
	{"bt.ns_per_execute", "ns"},
	{"program.build_us", "us"},
	{"phase.htb.ns_per_record", "ns"},
	{"phase.htb.us_per_endwindow", "us"},
	{"phase.windows", "count"},
	{"pvt.ns_per_lookup", "ns"},
	{"pvt.hit_ratio", "ratio"},
	{"cde.us_per_handlemiss", "us"},
	{"cde.invocations", "count"},
	{"power.ns_per_add", "ns"},
	{"power.us_per_report", "us"},
	{"sim.ns_per_insn", "ns"},
	{"sim.runs", "count"},
	{"sim.batch.ns_per_lane_insn", "ns"},
	{"sim.batch.lanes_per_group", "count"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.busy_frac", "ratio"},
	{"runner.simulations", "count"},
	{"rescache.put_us", "us"},
	{"rescache.get_us", "us"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.stores", "count"},
	{"rescache.bypass", "count"},
	{"rescache.disk_mb", "MB"},
	{"http.run_ms", "ms"},
	{"http.explain_ms", "ms"},
	{"serve.server_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.sim_share", "ratio"},
	{"serve.events_dropped", "count"},
}

// finish prints the human-readable report, the metadata line and the
// result line, and stores an untraced run's headline numbers so a later
// traced run can report its tracing overhead.
func (r *run) finish() error {
	names := endToEnd
	if r.cfg.trace {
		names = perLayer
	}
	res := result{Metrics: map[string]metric{}}
	r.mu.Lock()
	res.Attempted, res.Failed = r.attempted, r.failed
	r.mu.Unlock()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, n := range names {
		m, ok := r.metrics[n.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n.name)
		}
		if m.Unit != n.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", n.name, m.Unit, n.unit)
		}
		res.Metrics[n.name] = m
		fmt.Fprintf(r.out, "%-32s %14.6g %s\n", n.name, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(r.out, "%-32s %14.6g %s\n", "failed_frac", frac, "ratio")
	r.note("failed_frac", frac)
	r.note("peak_workers", r.peakWorkers.Load())
	last := filepath.Join(r.cfg.work, "last-untraced-"+r.cfg.workload+".json")
	if r.cfg.trace {
		r.noteOverhead(last)
	} else if res.Correct {
		b, _ := json.Marshal(map[string]float64{
			"cold_s": r.metrics["cold_s"].Value,
			"p50_ms": r.metrics["p50_ms"].Value,
		})
		_ = os.WriteFile(last, b, 0o644)
	}
	r.mu.Lock()
	meta, err := json.Marshal(r.meta)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "meta %s\n", meta)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%s\n", line)
	return nil
}

// noteOverhead records traced minus untraced cold_s and p50_ms, against
// the last correct untraced run of the same workload in this checkout.
func (r *run) noteOverhead(lastFile string) {
	b, err := os.ReadFile(lastFile)
	if err != nil {
		r.note("tracing_overhead", "no untraced run of this workload in this checkout yet")
		return
	}
	var last map[string]float64
	if json.Unmarshal(b, &last) != nil {
		return
	}
	over := map[string]float64{}
	for _, k := range []string{"cold_s", "p50_ms"} {
		v := r.metrics[k].Value
		over[k] = v - last[k]
		over[k+"_share"] = (v - last[k]) / last[k]
	}
	r.note("tracing_overhead", over)
}
