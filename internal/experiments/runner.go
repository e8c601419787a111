// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each FigureN/TableN function runs the required
// simulations through a memoizing Runner — several figures share the same
// underlying runs — and returns a structured result that renders as a
// plain-text chart shaped like the paper's figure.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/obs"
	"powerchop/internal/obs/span"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/policy"
	"powerchop/internal/program"
	"powerchop/internal/pvt"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// Kind selects the power-management configuration of a run.
type Kind string

const (
	// KindFullPower keeps the VPU, BPU and MLC at full power (Figure 12's
	// baseline).
	KindFullPower Kind = "full-power"
	// KindPowerChop runs the full PowerChop system managing all three
	// units.
	KindPowerChop Kind = "powerchop"
	// KindMinPower holds every unit in its lowest-power state.
	KindMinPower Kind = "min-power"
	// KindTimeout runs the hardware-only 20K-cycle idle-timeout VPU
	// baseline of Section V-E.
	KindTimeout Kind = "timeout"
	// KindSmallBPU forces the small local predictor (Figure 2's series).
	KindSmallBPU Kind = "small-bpu"
	// KindMLCOne forces the one-way MLC (Figure 3's 128KB 1-way series).
	KindMLCOne Kind = "mlc-one-way"
	// KindChopVPU runs PowerChop managing only the VPU (per-unit study).
	KindChopVPU Kind = "powerchop-vpu"
	// KindChopBPU runs PowerChop managing only the BPU.
	KindChopBPU Kind = "powerchop-bpu"
	// KindChopMLC runs PowerChop managing only the MLC.
	KindChopMLC Kind = "powerchop-mlc"
)

// Runner executes and memoizes benchmark runs. Figures share a Runner so
// that, e.g., the PowerChop runs behind Figures 9-14 happen once.
//
// The Runner is safe for concurrent use: simultaneous Result calls for
// the same benchmark×kind key are deduplicated singleflight-style (one
// caller simulates, the rest wait for its result), and the total number
// of in-flight simulations is bounded by the runner's job count. Each
// simulation itself is single-threaded and deterministic, so the set of
// cached Results is identical however calls interleave.
type Runner struct {
	mu      sync.Mutex
	scale   float64
	flights map[string]*flight
	sem     chan struct{}
	sims    atomic.Uint64

	// Tracer, when non-nil, is threaded into every simulation the runner
	// launches. Memoized and persistent-cache results are not re-run, so
	// it sees only the simulations actually performed; set it before the
	// first Result call. Figures run many benchmarks through one Runner,
	// so a shared sink must be safe for concurrent emission.
	Tracer obs.Tracer

	// Progress, when non-nil, receives run lifecycle updates: queued when
	// a flight is registered, simulating once it holds a job slot (then
	// again at every window boundary with live counters), and done or
	// error at completion. Like Tracer, set it before the first Result
	// call; implementations must be safe for concurrent use.
	Progress ProgressSink

	// Cache, when non-nil, is a persistent result store consulted before
	// each simulation and filled after it: a hit skips the run entirely,
	// emits no Tracer events and never occupies a job slot. A Tracer
	// keeps the cache on (a miss simulates live, streaming its events,
	// then files the result); only Telemetry runs bypass it (and count
	// the bypass) — a cached result cannot replay the per-window series.
	// Set it before the first Result call.
	Cache *rescache.Cache

	// Batch caps how many cold lanes one ResultBatch call hands to a
	// single batched simulation (sim.RunBatch): 0 selects the default
	// cap, 1 disables batching (every lane simulates solo). Batching is
	// a pure wall-clock optimization — results, cache entries and
	// singleflight keys are identical either way. Set it before the
	// first call.
	Batch int
}

// flight is one cache entry: the simulation's result once done is
// closed, and the dedup point for concurrent callers until then.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// NewRunner returns a runner with GOMAXPROCS parallelism. scale
// multiplies the default run length of two full passes through each
// benchmark's phase schedule; 1 is the calibrated default, smaller
// values shorten smoke runs.
func NewRunner(scale float64) *Runner {
	return NewParallelRunner(scale, 0)
}

// NewParallelRunner returns a runner that allows at most jobs concurrent
// simulations (jobs <= 0 selects GOMAXPROCS). jobs bounds simulation
// work only; any number of callers may block in Result waiting on
// flights without occupying a job slot.
func NewParallelRunner(scale float64, jobs int) *Runner {
	if scale <= 0 {
		scale = 1
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		scale:   scale,
		flights: map[string]*flight{},
		sem:     make(chan struct{}, jobs),
	}
}

// Jobs returns the maximum number of concurrent simulations.
func (r *Runner) Jobs() int { return cap(r.sem) }

// Simulations returns how many simulations the runner has actually
// executed (cache hits and deduplicated waiters do not count).
func (r *Runner) Simulations() uint64 { return r.sims.Load() }

// runLength scales the default run of two schedule passes, but never
// below one full pass: every phase must execute at least once for the
// figures to be meaningful.
func (r *Runner) runLength(schedule int) uint64 {
	n := uint64(float64(2*schedule) * r.scale)
	if n < uint64(schedule) {
		n = uint64(schedule)
	}
	return n
}

// manager constructs a fresh manager of the kind (managers are stateful
// and must not be shared across runs). The base kinds resolve through
// the policy registry at default parameters — the registry is the
// single source of manager construction — while the study-only kinds
// (forced unit states, per-unit PowerChop isolation) keep their local
// wiring: they are experiment configurations, not selectable policies.
func manager(kind Kind) (core.Manager, error) {
	switch kind {
	case KindFullPower, KindPowerChop, KindMinPower, KindTimeout:
		spec, ok := policy.Lookup(string(kind))
		if !ok {
			return nil, fmt.Errorf("experiments: kind %q not in policy registry", kind)
		}
		return spec.Manager(nil)
	case KindSmallBPU:
		p := core.AlwaysOn().Policy
		p.BPUOn = false
		return &core.Static{ManagerName: string(KindSmallBPU), Policy: p}, nil
	case KindMLCOne:
		p := core.AlwaysOn().Policy
		p.MLC = pvt.MLCOne
		return &core.Static{ManagerName: string(KindMLCOne), Policy: p}, nil
	case KindChopVPU, KindChopBPU, KindChopMLC:
		cfg := core.DefaultConfig()
		cfg.Managed.VPU = kind == KindChopVPU
		cfg.Managed.BPU = kind == KindChopBPU
		cfg.Managed.MLC = kind == KindChopMLC
		return core.NewPowerChop(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown run kind %q", kind)
	}
}

// designFor picks the benchmark's design point: MobileBench runs on the
// mobile core, everything else on the server core (Section V-A).
func designFor(b workload.Benchmark) arch.Design {
	if b.Mobile {
		return arch.Mobile()
	}
	return arch.Server()
}

// runSpec describes one run configuration beyond the benchmark: how to
// build the manager, how the run keys into the memo and persistent
// caches, and how it is labeled in progress reports and spans.
type runSpec struct {
	// label identifies the configuration in progress updates and spans.
	label Kind
	// managerKey is the persistent-cache Manager field (the kind string
	// for the fixed kinds, the policy fingerprint for policy runs).
	managerKey string
	// quality enables translation-quality tracking on unsampled runs
	// (the canonical PowerChop runs feed the quality figure).
	quality bool
	// build constructs a fresh manager (managers are stateful and must
	// not be shared across runs).
	build func() (core.Manager, error)
	// telemetry, when non-nil, attaches a time-series store to the run
	// (Telemetry runs only; forces a cache bypass — a cached result
	// cannot replay the per-window series).
	telemetry *tsdb.Store
}

// kindRun is the runSpec of a fixed experiment kind.
func kindRun(kind Kind) runSpec {
	return runSpec{
		label:      kind,
		managerKey: string(kind),
		quality:    kind == KindPowerChop,
		build:      func() (core.Manager, error) { return manager(kind) },
	}
}

// policyRun is the runSpec of a registered policy at a parameter
// assignment. The memo and persistent-cache keys are the policy
// fingerprint, so two sweeps of the same grid share entries exactly.
func policyRun(name string, params policy.Params) (runSpec, error) {
	spec, ok := policy.Lookup(name)
	if !ok {
		return runSpec{}, fmt.Errorf("experiments: unknown policy %q", name)
	}
	fp, err := spec.Fingerprint(params)
	if err != nil {
		return runSpec{}, err
	}
	p := params.Clone()
	return runSpec{
		label:      Kind(name),
		managerKey: fp,
		build:      func() (core.Manager, error) { return spec.Manager(p) },
	}, nil
}

// Result returns the (cached) run of the benchmark under the kind.
// Concurrent calls for the same key simulate exactly once: the first
// caller registers a flight and runs, later callers wait on it. Errors
// are not cached — a failed flight is dropped so a subsequent call can
// retry, matching the serial runner's cache-on-success semantics.
//
// When ctx carries a span (internal/obs/span) the flight owner's
// simulation runs under a "benchmark" child span (with no "sim" child
// when the persistent cache serves it); deduplicated waiters and
// memoized results open no span of their own.
func (r *Runner) Result(ctx context.Context, b workload.Benchmark, kind Kind) (*sim.Result, error) {
	return r.result(ctx, b, kindRun(kind))
}

// PolicyResult returns the (cached) run of the benchmark under a
// registered policy at the given parameters, with Result's singleflight
// and persistent-cache semantics keyed by the policy fingerprint. It
// errors on an unknown policy or an invalid parameter assignment.
func (r *Runner) PolicyResult(ctx context.Context, b workload.Benchmark, name string, params policy.Params) (*sim.Result, error) {
	rs, err := policyRun(name, params)
	if err != nil {
		return nil, err
	}
	return r.result(ctx, b, rs)
}

// result is the shared singleflight path behind Result and PolicyResult.
func (r *Runner) result(ctx context.Context, b workload.Benchmark, rs runSpec) (*sim.Result, error) {
	key := b.Name + "/" + rs.managerKey
	r.mu.Lock()
	if f, ok := r.flights[key]; ok {
		r.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	r.mu.Unlock()

	// Only the flight owner reports progress: deduplicated waiters would
	// otherwise produce duplicate lifecycle transitions for the same run.
	r.report(RunUpdate{Benchmark: b.Name, Kind: rs.label, State: RunQueued})
	f.res, f.err = r.simulate(ctx, b, rs, 0, true)
	if f.err != nil {
		r.mu.Lock()
		delete(r.flights, key)
		r.mu.Unlock()
	}
	close(f.done)
	return f.res, f.err
}

// Sampled runs the benchmark with time-series sampling enabled (used by
// the Figure 1-3 time-series plots; not cached, but still bounded by the
// runner's job slots).
func (r *Runner) Sampled(ctx context.Context, b workload.Benchmark, kind Kind, sampleInterval uint64) (*sim.Result, error) {
	// Sampled runs are uncached extras sharing a key with the canonical
	// run, so they stay silent on the progress board.
	return r.simulate(ctx, b, kindRun(kind), sampleInterval, false)
}

// Telemetry runs the benchmark with the time-series store attached as an
// extra event sink (used by the power-trace figure and `powerchop top`'s
// in-process mode). Like Sampled it is never cached — a cached result
// cannot replay the per-window series — but still bounded by the
// runner's job slots. The runner's shared Tracer, if any, stays attached
// alongside, so figure output remains byte-identical either way.
func (r *Runner) Telemetry(ctx context.Context, b workload.Benchmark, kind Kind, ts *tsdb.Store) (*sim.Result, error) {
	rs := kindRun(kind)
	rs.telemetry = ts
	return r.simulate(ctx, b, rs, 0, false)
}

// BatchRun selects one lane of a ResultBatch call: a fixed experiment
// Kind, or — when Policy is non-empty — a registered policy at a
// parameter assignment, the same selections Result and PolicyResult
// make individually.
type BatchRun struct {
	Kind   Kind
	Policy string
	Params policy.Params
}

// ResultBatch returns the runs of the benchmark under every requested
// configuration, in input order, with Result's singleflight and
// persistent-cache semantics per lane. Lanes not already in flight or
// in the cache share batched simulations — one instruction walk driving
// every lane (internal/sim.RunBatch) — which is byte-identical to solo
// runs: the batch only amortizes the shared front-end work.
func (r *Runner) ResultBatch(ctx context.Context, b workload.Benchmark, runs []BatchRun) ([]*sim.Result, error) {
	rss := make([]runSpec, len(runs))
	for i, br := range runs {
		if br.Policy != "" {
			rs, err := policyRun(br.Policy, br.Params)
			if err != nil {
				return nil, err
			}
			rss[i] = rs
		} else {
			rss[i] = kindRun(br.Kind)
		}
	}
	return r.resultBatch(ctx, b, rss)
}

// batchCap resolves the runner's Batch setting into a group cap. The
// default matches the root package's: past ~16 lanes the per-lane work
// dominates and wider groups only cost memory.
func (r *Runner) batchCap() int {
	if r.Batch <= 0 {
		return 16
	}
	return r.Batch
}

// resultBatch is the batched counterpart of result: it claims a flight
// per lane (lanes already in flight elsewhere are simply awaited),
// serves persistent-cache hits, and drives the cold remainder through
// batched simulations. A failed flight is dropped for retry, exactly
// like result's.
func (r *Runner) resultBatch(ctx context.Context, b workload.Benchmark, rss []runSpec) ([]*sim.Result, error) {
	if r.batchCap() == 1 || r.Tracer != nil {
		// Nothing to batch — and with a tracer attached every cold run
		// wants its own solo event stream anyway.
		out := make([]*sim.Result, len(rss))
		for i, rs := range rss {
			res, err := r.result(ctx, b, rs)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	flights := make([]*flight, len(rss))
	owned := make([]int, 0, len(rss))
	r.mu.Lock()
	for i, rs := range rss {
		key := b.Name + "/" + rs.managerKey
		if f, ok := r.flights[key]; ok {
			// Already in flight (possibly owned earlier in this very
			// loop, for duplicate lanes): await it below.
			flights[i] = f
			continue
		}
		f := &flight{done: make(chan struct{})}
		r.flights[key] = f
		flights[i] = f
		owned = append(owned, i)
	}
	r.mu.Unlock()
	if len(owned) > 0 {
		r.simulateBatch(ctx, b, rss, flights, owned)
	}
	out := make([]*sim.Result, len(rss))
	for i := range rss {
		<-flights[i].done
		if flights[i].err != nil {
			return nil, flights[i].err
		}
		out[i] = flights[i].res
	}
	return out, nil
}

// simulateBatch executes the owned lanes: persistent-cache hits resolve
// immediately (never occupying a job slot), the rest simulate in groups
// of at most batchCap lanes, each group holding one slot. Every owned
// flight is filled and closed here; a group failure fails every lane
// still pending in this call.
func (r *Runner) simulateBatch(ctx context.Context, b workload.Benchmark, rss []runSpec, flights []*flight, owned []int) {
	started := time.Now()
	var runLen uint64
	settle := func(i int, res *sim.Result, err error) {
		f := flights[i]
		f.res, f.err = res, err
		if err != nil {
			r.mu.Lock()
			delete(r.flights, b.Name+"/"+rss[i].managerKey)
			r.mu.Unlock()
		}
		if r.Progress != nil {
			u := RunUpdate{Benchmark: b.Name, Kind: rss[i].label, State: RunDone, Elapsed: time.Since(started)}
			if err != nil {
				u.State, u.Err = RunError, err
			} else {
				u.Cycles, u.Windows = res.Cycles, res.Windows
				u.Translations, u.Total = runLen, runLen
			}
			r.report(u)
		}
		close(f.done)
	}

	for _, i := range owned {
		r.report(RunUpdate{Benchmark: b.Name, Kind: rss[i].label, State: RunQueued})
	}
	p, err := b.Build()
	if err != nil {
		for _, i := range owned {
			settle(i, nil, err)
		}
		return
	}
	runLen = r.runLength(p.TotalScheduleTranslations())
	keys := make([]rescache.Key, len(rss))
	cacheable := make([]bool, len(rss))
	var cold []int
	for _, i := range owned {
		keys[i], cacheable[i] = r.cacheKey(b, p, rss[i], 0, runLen)
		if cacheable[i] {
			if hit, ok := r.Cache.GetContext(ctx, keys[i]); ok {
				settle(i, hit, nil)
				continue
			}
		}
		cold = append(cold, i)
	}
	width := r.batchCap()
	for lo := 0; lo < len(cold); lo += width {
		hi := lo + width
		if hi > len(cold) {
			hi = len(cold)
		}
		group := cold[lo:hi]
		res, err := r.simulateGroup(ctx, b, p, rss, group, runLen)
		if err != nil {
			for _, i := range cold[lo:] {
				settle(i, nil, err)
			}
			return
		}
		for j, i := range group {
			if cacheable[i] {
				// Best-effort, as on the solo path.
				_ = r.Cache.Put(keys[i], res[j])
			}
			settle(i, res[j], nil)
		}
	}
}

// simulateGroup runs one batched group while holding a single job slot
// (the group shares one instruction walk, so it costs about one
// simulation's worth of sequential work plus the per-lane residue).
func (r *Runner) simulateGroup(ctx context.Context, b workload.Benchmark, p *program.Program, rss []runSpec, lanes []int, runLen uint64) (res []*sim.Result, err error) {
	ctx, sp := span.Start(ctx, "benchbatch",
		"bench="+b.Name, fmt.Sprintf("lanes=%d", len(lanes)))
	defer func() { sp.EndErr(err) }()
	cfgs := make([]sim.Config, len(lanes))
	for j, i := range lanes {
		m, err := rss[i].build()
		if err != nil {
			return nil, err
		}
		cfgs[j] = sim.Config{
			Context:         ctx,
			Design:          designFor(b),
			Manager:         m,
			MaxTranslations: runLen,
			TrackQuality:    rss[i].quality,
			Telemetry:       rss[i].telemetry,
		}
		if r.Progress != nil {
			label := rss[i].label
			cfgs[j].Progress = func(pr sim.Progress) {
				r.report(RunUpdate{
					Benchmark:    b.Name,
					Kind:         label,
					State:        RunSimulating,
					Cycles:       pr.Cycle,
					Translations: pr.Translations,
					Total:        pr.MaxTranslations,
					Windows:      pr.Windows,
				})
			}
		}
	}
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	if r.Progress != nil {
		for _, i := range lanes {
			r.report(RunUpdate{Benchmark: b.Name, Kind: rss[i].label, State: RunSimulating})
		}
	}
	r.sims.Add(uint64(len(lanes)))
	res, err = sim.RunBatch(p, cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s batch: %w", b.Name, err)
	}
	return res, nil
}

// cacheKey derives the canonical persistent-cache key for a run, or
// reports that the cache must be skipped: no cache configured, or a
// telemetry store attached (a cached result cannot replay the
// per-window series — that skip is counted as a bypass). The runner's
// Tracer does not skip the cache: hits simply emit no events.
func (r *Runner) cacheKey(b workload.Benchmark, p *program.Program, rs runSpec, sampleInterval, runLen uint64) (rescache.Key, bool) {
	if r.Cache == nil {
		return rescache.Key{}, false
	}
	if rs.telemetry != nil {
		r.Cache.CountBypass()
		return rescache.Key{}, false
	}
	return rescache.Key{
		Program: p.Digest(),
		Design:  rescache.Fingerprint(designFor(b)),
		Manager: rs.managerKey,
		Config: fmt.Sprintf("translations=%d sample=%d quality=%t",
			runLen, sampleInterval, sampleInterval == 0 && rs.quality),
	}, true
}

// simulate executes one run while holding a job slot. Only simulating
// goroutines occupy slots — flight waiters block outside and persistent
// cache hits return before acquisition — so the pool cannot deadlock
// however callers fan out.
func (r *Runner) simulate(ctx context.Context, b workload.Benchmark, rs runSpec, sampleInterval uint64, report bool) (res *sim.Result, err error) {
	ctx, sp := span.Start(ctx, "benchmark",
		"bench="+b.Name, "kind="+string(rs.label))
	defer func() { sp.EndErr(err) }()
	report = report && r.Progress != nil
	var runLen uint64
	if report {
		started := time.Now()
		defer func() {
			u := RunUpdate{Benchmark: b.Name, Kind: rs.label, State: RunDone, Elapsed: time.Since(started)}
			if err != nil {
				u.State, u.Err = RunError, err
			} else {
				u.Cycles, u.Windows = res.Cycles, res.Windows
				u.Translations, u.Total = runLen, runLen
			}
			r.report(u)
		}()
	}

	m, err := rs.build()
	if err != nil {
		return nil, err
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	runLen = r.runLength(p.TotalScheduleTranslations())
	key, cacheable := r.cacheKey(b, p, rs, sampleInterval, runLen)
	if cacheable {
		if hit, ok := r.Cache.GetContext(ctx, key); ok {
			return hit, nil
		}
	}

	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	if report {
		r.report(RunUpdate{Benchmark: b.Name, Kind: rs.label, State: RunSimulating})
	}
	r.sims.Add(1)
	cfg := sim.Config{
		Context:         ctx,
		Design:          designFor(b),
		Manager:         m,
		MaxTranslations: runLen,
		SampleInterval:  sampleInterval,
		TrackQuality:    sampleInterval == 0 && rs.quality,
		Tracer:          r.Tracer,
		Telemetry:       rs.telemetry,
	}
	if report {
		cfg.Progress = func(pr sim.Progress) {
			r.report(RunUpdate{
				Benchmark:    b.Name,
				Kind:         rs.label,
				State:        RunSimulating,
				Cycles:       pr.Cycle,
				Translations: pr.Translations,
				Total:        pr.MaxTranslations,
				Windows:      pr.Windows,
			})
		}
	}
	res, err = sim.Run(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", b.Name, rs.label, err)
	}
	if cacheable {
		// Best-effort: a failed store is counted by the cache but must
		// not fail the run that produced a perfectly good result.
		_ = r.Cache.Put(key, res)
	}
	return res, nil
}
