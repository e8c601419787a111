// Package powerchop is a library reproduction of "PowerChop: Identifying
// and Managing Non-critical Units in Hybrid Processor Architectures"
// (Laurenzano, Zhang, Chen, Tang and Mars, ISCA 2016).
//
// PowerChop power-gates three large, stateful, high-activity units of a
// hybrid (binary-translation based) processor — the vector processing
// unit, the large branch predictor and the middle-level cache — at
// application-phase granularity, based on measured unit criticality
// rather than unit idleness. This package exposes:
//
//   - Run: simulate one of the paper's 29 benchmark stand-ins on the
//     server or mobile design point under a chosen power manager
//     (PowerChop, full-power, minimum-power, or the idle-timeout
//     baseline) and report performance, unit activity and power.
//   - Compare: the paper's headline three-way comparison for a benchmark.
//   - Workload: a builder for custom guest programs, so downstream users
//     can evaluate PowerChop on their own phase behaviours.
//   - RenderFigure / FigureIDs: regenerate each table and figure of the
//     paper's evaluation section.
//
// The simulator, binary-translation runtime, predictors, caches, power
// model and workloads are all implemented in this module's internal
// packages; see DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package powerchop

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/obs/audit"
	"powerchop/internal/obs/span"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/policy"
	"powerchop/internal/program"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// Manager names accepted by Options.Manager. These are the built-in
// registrations of the policy registry (internal/policy); PolicyNames
// lists every registered policy, including any added later.
const (
	ManagerPowerChop = "powerchop"
	ManagerFullPower = "full-power"
	ManagerMinPower  = "min-power"
	ManagerTimeout   = "timeout"
	// ManagerEnergyMin is the paper's suggested aggressive variant
	// (Section V-A): higher criticality thresholds targeting energy
	// minimization at the cost of extra slowdown.
	ManagerEnergyMin = "energy-min"
	// ManagerDarkGates is the DarkGates-style break-even bypass policy:
	// PowerChop underneath, but gating decisions predicted to cost more
	// in transition stalls than they save in leakage are vetoed.
	ManagerDarkGates = "darkgates"
	// ManagerAgileWatts is the AgileWatts-style hierarchical idle-state
	// policy: consecutive idle windows promote each unit through shallow
	// and deep gated states with distinct entry/exit costs.
	ManagerAgileWatts = "agilewatts"
)

// Arch names accepted by Options.Arch.
const (
	ArchServer = "server"
	ArchMobile = "mobile"
	// ArchAuto picks the design point the paper pairs with the
	// benchmark's suite: mobile for MobileBench, server otherwise.
	ArchAuto = ""
)

// Options configures a Run.
type Options struct {
	// Arch selects the design point ("server", "mobile", or empty for
	// the benchmark's default).
	Arch string
	// Manager selects the power manager (default "powerchop").
	Manager string
	// Passes is the run length in passes over the benchmark's phase
	// schedule (default 2).
	Passes float64
	// SampleInterval, when positive, records an IPC/vector-activity
	// sample every that many instructions.
	SampleInterval uint64
	// Params assigns values to the selected policy's registered
	// parameters (see Policies for each policy's schema); unset
	// parameters keep their defaults. Unknown names and out-of-bounds
	// values fail the run. Params wins over the legacy Thresholds and
	// TimeoutCycles fields when both name the same parameter.
	Params map[string]float64
	// Thresholds optionally overrides the PowerChop criticality
	// thresholds (VPU, BPU, MLC1, MLC2); zero values keep the defaults.
	Thresholds *Thresholds
	// TimeoutCycles overrides the idle-timeout baseline's period
	// (default 20000 cycles).
	TimeoutCycles float64
	// TraceWriter, when non-nil, receives the run's event trace as JSONL
	// (one event per line; see DESIGN.md "Observability"). The stream is
	// flushed before Run returns.
	TraceWriter io.Writer
	// Metrics enables metrics collection; the snapshot lands in
	// Report.Metrics.
	Metrics bool
	// Audit enables decision-provenance collection: every CDE decision's
	// lineage (scores, thresholds, PVT path) and a per-phase attribution
	// of energy saved vs. slowdown incurred land in Report.Audit. Like
	// Metrics it is a pure observer — the simulated results are
	// bit-identical with or without it.
	Audit bool
	// Tracer, when non-nil, receives the event stream of every run that
	// actually simulates, alongside any TraceWriter — the hook live
	// monitors attach to (see internal obs/serve). It does not turn the
	// result cache off: a Cache hit simulates nothing and emits no
	// events, so the tracer sees exactly the simulations performed. It
	// must be safe for concurrent emission if the caller also sets
	// Parallelism above one.
	Tracer obs.Tracer
	// Telemetry, when non-nil, streams the run's per-window series
	// (instruction counts, IPC, stalls, per-unit power fractions, PVT hit
	// rate, criticality scores) into the given time-series store; query
	// it live over /api/query on a monitor or afterwards in process. A
	// pure observer like Tracer: results are bit-identical with or
	// without it.
	Telemetry *tsdb.Store
	// Progress, when non-nil, is called at every window boundary and once
	// on completion. The callback is a pure observer: results are
	// bit-identical with or without it.
	Progress func(RunProgress)
	// Parallelism, when above one, lets Compare run its three
	// configurations concurrently (each simulation stays
	// single-threaded and deterministic, so the Reports are identical
	// to a serial run). It is ignored when TraceWriter is set, where
	// serial execution keeps the three event streams from interleaving.
	Parallelism int
	// Batch caps how many configurations one batched simulation group
	// (sim.RunBatch) drives from a single trace walk: 0 selects the
	// default cap, 1 disables batching entirely, larger values set the
	// cap. Batching is a pure wall-clock optimization — RunBatch, Compare
	// and Tune produce byte-identical Reports at any setting — so the
	// only reasons to change it are memory (each lane holds its own MLC
	// copy once gated) and A/B timing.
	Batch int
	// Cache, when non-nil, is a persistent content-addressed result
	// store (internal/rescache): Run consults it before simulating and
	// files the result afterwards, so repeated identical runs are
	// near-instant and byte-identical. Runs that record the whole run
	// (TraceWriter, Metrics, Audit or Telemetry) bypass the cache, and
	// the bypass is counted — a cached result cannot replay the stream
	// they record. A Tracer does not bypass: a miss simulates live,
	// streaming its events, and is then filed; a hit emits no events.
	// Progress works either way: on a hit the callback receives only the
	// final done report.
	Cache *rescache.Cache
	// CacheDir, when non-empty and Cache is nil, opens a cache rooted at
	// that directory (created on first store) with a private metrics
	// registry. The POWERCHOP_CACHE environment variable feeds this
	// through the CLI's -cache flag default.
	CacheDir string
}

// Thresholds mirrors the CDE criticality cut-offs.
type Thresholds struct {
	VPU, BPU, MLC1, MLC2 float64
}

// Run states reported through RunProgress.
const (
	StateQueued     = "queued"
	StateSimulating = "simulating"
	StateDone       = "done"
	StateError      = "error"
)

// Run, RunBatch and Compare classify a failure that lies with the
// caller's request by wrapping it in one of these sentinels (test with
// errors.Is); the error text stays the underlying cause's. Any other
// failure (a simulation or trace-output error) lies with the program or
// its environment.
var (
	// ErrUnknownBenchmark marks a benchmark name that is not registered.
	ErrUnknownBenchmark = workload.ErrUnknownBenchmark
	// ErrInvalidOptions marks an unknown manager or design, or a policy
	// parameter that is unknown or out of range.
	ErrInvalidOptions = errors.New("powerchop: invalid options")
)

// invalidOptions marks err as an ErrInvalidOptions failure without
// changing its text.
type invalidOptions struct{ err error }

func (e invalidOptions) Error() string   { return e.err.Error() }
func (e invalidOptions) Unwrap() []error { return []error{ErrInvalidOptions, e.err} }

// RunProgress is one progress report about a simulation: which
// (benchmark, kind) run it concerns, where it is in its lifecycle, and
// how far along the simulated clock has advanced.
type RunProgress struct {
	Benchmark string
	// Kind is the run's configuration (a manager name for single runs, an
	// experiments kind like "full-power" for figure sweeps).
	Kind  string
	State string
	// Cycles is the current simulated cycle count.
	Cycles float64
	// Translations/Total are region executions done vs budgeted.
	Translations uint64
	Total        uint64
	// Windows is the number of closed HTB windows.
	Windows uint64
	// Elapsed is wall-clock time spent simulating.
	Elapsed time.Duration
	// Err is the failure message when State is "error".
	Err string
}

// Sample is one time-series point of a sampled run.
type Sample struct {
	Instructions uint64  // cumulative guest instructions
	IPC          float64 // over the interval
	VectorOps    uint64  // in the interval
}

// UnitReport summarizes one managed unit over a run.
type UnitReport struct {
	// GatedFrac is the fraction of cycles below full power.
	GatedFrac float64
	// OneWayFrac (MLC only) is the fraction of cycles at one active way.
	OneWayFrac float64
	// HalfFrac (MLC only) is the fraction at half the ways.
	HalfFrac float64
	// SwitchesPerMCycles is power-state changes per million cycles.
	SwitchesPerMCycles float64
	// LeakageJ is the leakage energy the unit drew given its gating
	// residency; FullLeakageJ what an always-on unit would have drawn
	// over the same run; LeakageSavedJ their difference — the quantity
	// the audit layer attributes back to individual gating decisions.
	LeakageJ      float64
	FullLeakageJ  float64
	LeakageSavedJ float64
}

// Report is a run's public result.
type Report struct {
	Benchmark string
	Suite     string
	Arch      string
	Manager   string

	Cycles       float64
	Instructions uint64
	IPC          float64
	Seconds      float64

	VPU UnitReport
	BPU UnitReport
	MLC UnitReport

	AvgPowerW    float64
	AvgLeakageW  float64
	TotalEnergyJ float64

	MispredictRate float64
	MLCHitRate     float64

	PVTHitRate     float64
	CDEInvocations uint64
	PhasesSeen     int

	Samples []Sample

	// Metrics holds the run's metrics snapshot when Options.Metrics was
	// set; nil otherwise.
	Metrics *MetricsReport

	// Audit holds the run's decision-provenance report when
	// Options.Audit was set; nil otherwise.
	Audit *AuditReport
}

// ScoreRecord is one unit's criticality measurement inside a decision:
// the value Algorithm 1 computed, the threshold(s) it was compared
// against, and the comparison's outcome.
type ScoreRecord struct {
	Unit   string
	Metric string // "simd-ratio", "mispred-delta", "l2hit-ratio"
	Value  float64
	// Threshold is the cut-off compared against (MLC1 for the MLC);
	// Threshold2 the MLC's second cut-off, zero elsewhere.
	Threshold  float64
	Threshold2 float64
	// Outcome renders the comparison, e.g. "0.00013 <= 0.005 -> off".
	Outcome string
}

// DecisionRecord is the full lineage of one gating decision.
type DecisionRecord struct {
	// Phase is the phase signature the decision covers.
	Phase string
	// Window locates the registration in the run.
	Window uint64
	// Path is "computed", "restored" or "abandoned".
	Path string
	// Policy is the decided policy vector, rendered like "V=1,B=0,M=01".
	Policy string
	// Scores are the measurements behind a computed decision.
	Scores []ScoreRecord
	// ProfileWindows, Attempts and LatencyWindows describe the
	// profiling effort: windows consumed, CDE invocations spent, and
	// windows elapsed from first PVT miss to registration.
	ProfileWindows uint64
	Attempts       uint64
	LatencyWindows uint64
}

// PhaseAttribution is one phase's share of the run: how long its
// decisions governed execution, what they saved, what they cost.
type PhaseAttribution struct {
	Phase   string
	Policy  string
	Windows uint64
	Cycles  float64
	// PVT path counts and decision count for the phase.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Decisions uint64
	// GatedCycles and EnergySavedJ attribute per-unit gating (cycles
	// weighted by depth, and the leakage energy saved) to the phase.
	GatedCycles  map[string]float64
	EnergySavedJ map[string]float64
	// EnergySavedTotalJ sums EnergySavedJ; OverheadCycles is the
	// slowdown incurred (gate stalls + CDE invocations) and OverheadJ
	// the whole-core leakage burned during it.
	EnergySavedTotalJ float64
	OverheadCycles    float64
	OverheadJ         float64
}

// AuditReport is the public mirror of a run's decision-provenance trail.
type AuditReport struct {
	// Phases is the attribution table in order of first appearance
	// ("(boot)" covers pre-decision cycles).
	Phases []PhaseAttribution
	// Decisions lists every policy registration in order.
	Decisions []DecisionRecord
	// EnergySavedJ totals attributed savings per unit; these sum to the
	// run's per-unit LeakageSavedJ (see UnitReport).
	EnergySavedJ      map[string]float64
	EnergySavedTotalJ float64
	// OverheadJ is the total slowdown cost in leakage energy.
	OverheadJ float64
	// Summary is the rendered attribution report (the top-20 view; use
	// Render for other depths).
	Summary string

	trail *audit.Trail
}

// Render formats the attribution report showing at most top phases and
// decisions (0 = all).
func (a *AuditReport) Render(top int) string { return a.trail.Render(top) }

// auditReportOf converts an internal trail.
func auditReportOf(t *audit.Trail) *AuditReport {
	r := &AuditReport{
		EnergySavedJ:      t.EnergySavedJ,
		EnergySavedTotalJ: t.EnergySavedTotalJ,
		OverheadJ:         t.OverheadJ,
		Summary:           t.Render(20),
		trail:             t,
	}
	for _, p := range t.Phases {
		r.Phases = append(r.Phases, PhaseAttribution{
			Phase:             p.Phase,
			Policy:            p.PolicyStr,
			Windows:           p.Windows,
			Cycles:            p.Cycles,
			Hits:              p.Hits,
			Misses:            p.Misses,
			Evictions:         p.Evictions,
			Decisions:         p.Decisions,
			GatedCycles:       p.GatedCycles,
			EnergySavedJ:      p.EnergySavedJ,
			EnergySavedTotalJ: p.EnergySavedTotalJ,
			OverheadCycles:    p.OverheadCycles,
			OverheadJ:         p.OverheadJ,
		})
	}
	for _, d := range t.Decisions {
		pub := DecisionRecord{
			Phase:          d.Phase,
			Window:         d.Window,
			Path:           d.Path,
			Policy:         d.PolicyStr,
			ProfileWindows: d.ProfileWindows,
			Attempts:       d.Attempts,
			LatencyWindows: d.LatencyWindows,
		}
		for _, s := range d.Scores {
			pub.Scores = append(pub.Scores, ScoreRecord{
				Unit:       s.Unit,
				Metric:     s.Metric,
				Value:      s.Value,
				Threshold:  s.Threshold,
				Threshold2: s.Threshold2,
				Outcome:    s.Comparison(),
			})
		}
		r.Decisions = append(r.Decisions, pub)
	}
	return r
}

// HistogramReport summarizes one metrics histogram.
type HistogramReport struct {
	Count uint64
	Mean  float64
	Min   float64
	Max   float64
}

// MetricsReport is the public mirror of a run's metrics snapshot.
type MetricsReport struct {
	// Counters maps counter names (e.g. "events.pvt-hit") to values.
	Counters map[string]uint64
	// Histograms maps histogram names (e.g. "window.insns") to summaries.
	Histograms map[string]HistogramReport
	// Summary is the rendered human-readable metrics table.
	Summary string
}

// metricsReportOf converts an internal snapshot.
func metricsReportOf(s *obs.Snapshot) *MetricsReport {
	m := &MetricsReport{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Histograms: make(map[string]HistogramReport, len(s.Histograms)),
		Summary:    s.Render(),
	}
	for _, c := range s.Counters {
		m.Counters[c.Name] = c.Value
	}
	for _, h := range s.Histograms {
		m.Histograms[h.Name] = HistogramReport{
			Count: h.Count, Mean: h.Mean(), Min: h.Min, Max: h.Max,
		}
	}
	return m
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%s/%s: IPC %.2f, power %.3g W (leakage %.3g W), gated VPU %.0f%% BPU %.0f%% MLC %.0f%%",
		r.Benchmark, r.Arch, r.Manager, r.IPC, r.AvgPowerW, r.AvgLeakageW,
		r.VPU.GatedFrac*100, r.BPU.GatedFrac*100, r.MLC.GatedFrac*100)
}

// Benchmarks returns the names of the built-in benchmark stand-ins.
func Benchmarks() []string { return workload.Names() }

// Suites returns the benchmark suite names.
func Suites() []string { return workload.Suites() }

// SuiteOf returns the suite of a benchmark.
func SuiteOf(benchmark string) (string, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return "", err
	}
	return b.Suite, nil
}

// resolvePolicy maps Options onto the policy registry: the Manager
// string selects a registered Spec, the legacy Thresholds/TimeoutCycles
// fields fold onto their policies' schema parameters (preserving their
// original scoping — thresholds only shaped the default PowerChop, the
// timeout period only the timeout baseline), and Options.Params overlays
// last, so explicit parameters always win.
func resolvePolicy(o Options) (policy.Spec, policy.Params, error) {
	name := o.Manager
	if name == "" {
		name = ManagerPowerChop
	}
	spec, ok := policy.Lookup(name)
	if !ok {
		return policy.Spec{}, nil, fmt.Errorf("powerchop: unknown manager %q", o.Manager)
	}
	params := policy.Params{}
	switch name {
	case ManagerPowerChop:
		if o.Thresholds != nil {
			if o.Thresholds.VPU > 0 {
				params["vpu"] = o.Thresholds.VPU
			}
			if o.Thresholds.BPU > 0 {
				params["bpu"] = o.Thresholds.BPU
			}
			if o.Thresholds.MLC1 > 0 {
				params["mlc1"] = o.Thresholds.MLC1
			}
			if o.Thresholds.MLC2 > 0 {
				params["mlc2"] = o.Thresholds.MLC2
			}
		}
	case ManagerTimeout:
		if o.TimeoutCycles > 0 {
			params["idle-cycles"] = o.TimeoutCycles
		}
	}
	for k, v := range o.Params {
		params[k] = v
	}
	return spec, params, nil
}

// designFor resolves the design point.
func designFor(o Options, b workload.Benchmark) (arch.Design, error) {
	switch o.Arch {
	case ArchAuto:
		if b.Mobile {
			return arch.Mobile(), nil
		}
		return arch.Server(), nil
	default:
		return arch.ByName(o.Arch)
	}
}

// Run simulates the named benchmark under the options.
func Run(benchmark string, opts Options) (*Report, error) {
	return RunContext(context.Background(), benchmark, opts)
}

// RunContext is Run under a context. When ctx carries a span
// (internal/obs/span) the run executes under a "benchmark" child span
// and the simulation beneath a "sim" span — pure observation; the
// Report is byte-identical regardless of ctx.
func RunContext(ctx context.Context, benchmark string, opts Options) (*Report, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return runProgram(ctx, p, b, opts)
}

// runProgram executes a built program and converts the result.
func runProgram(ctx context.Context, p *program.Program, b workload.Benchmark, opts Options) (rep *Report, err error) {
	manager := opts.Manager
	if manager == "" {
		manager = ManagerPowerChop
	}
	ctx, sp := span.Start(ctx, "benchmark",
		"bench="+b.Name, "manager="+manager)
	defer func() { sp.EndErr(err) }()
	lane, err := prepareRun(ctx, p, b, opts)
	if err != nil {
		return nil, err
	}
	if rep, ok := lane.cached(); ok {
		return rep, nil
	}
	res, err := sim.Run(p, lane.cfg)
	if err != nil {
		return nil, err
	}
	return lane.finish(res)
}

// laneRun is one prepared simulation lane: the assembled sim.Config plus
// the cache and trace plumbing a public Run performs around it. Both the
// solo path (runProgram) and the batched path (runProgramBatch) prepare
// lanes the same way, which is what keeps their cache keys, progress
// reports and Reports identical.
type laneRun struct {
	bench    string
	kind     string // manager name, for progress reports
	cfg      sim.Config
	trace    *obs.JSONL
	resCache *rescache.Cache
	cacheKey rescache.Key
	progress func(RunProgress)
}

// prepareRun resolves the options into a ready-to-simulate lane:
// policy and design resolution, run length, observer sinks, persistent
// cache keying (with bypass counting) and the progress adapter.
func prepareRun(ctx context.Context, p *program.Program, b workload.Benchmark, opts Options) (*laneRun, error) {
	spec, params, err := resolvePolicy(opts)
	if err != nil {
		return nil, invalidOptions{err}
	}
	// Fingerprint validates parameters (bounds, unknown names) and
	// renders the canonical policy identity for the cache key.
	fingerprint, err := spec.Fingerprint(params)
	if err != nil {
		return nil, invalidOptions{err}
	}
	m, err := spec.Manager(params)
	if err != nil {
		return nil, invalidOptions{err}
	}
	design, err := designFor(opts, b)
	if err != nil {
		return nil, invalidOptions{err}
	}
	passes := opts.Passes
	if passes <= 0 {
		passes = 2
	}
	lane := &laneRun{
		bench:    b.Name,
		kind:     m.Name(),
		progress: opts.Progress,
	}
	var sinks []obs.Tracer
	if opts.TraceWriter != nil {
		lane.trace = obs.NewJSONL(opts.TraceWriter)
		sinks = append(sinks, lane.trace)
	}
	if opts.Tracer != nil {
		sinks = append(sinks, opts.Tracer)
	}
	lane.cfg = sim.Config{
		Context:         ctx,
		Design:          design,
		Manager:         m,
		MaxTranslations: uint64(passes * float64(p.TotalScheduleTranslations())),
		SampleInterval:  opts.SampleInterval,
		Tracer:          obs.Multi(sinks...),
		Metrics:         opts.Metrics,
		Audit:           opts.Audit,
		Telemetry:       opts.Telemetry,
	}

	// Persistent result cache: consult before simulating, fill after.
	// Full per-run recording bypasses (a cached result cannot replay the
	// event trace or rebuild metrics, audit trails or telemetry series);
	// the skip is counted so /metrics shows it happening. A live Tracer
	// keeps the cache: it sees the events of the runs that simulate.
	resCache := opts.Cache
	if resCache == nil && opts.CacheDir != "" {
		resCache = rescache.New(opts.CacheDir, nil)
	}
	if resCache != nil {
		if opts.TraceWriter != nil || opts.Metrics || opts.Audit || opts.Telemetry != nil {
			resCache.CountBypass()
		} else {
			lane.resCache = resCache
			lane.cacheKey = cacheKeyFor(p, design, fingerprint, opts, lane.cfg.MaxTranslations)
		}
	}

	if progress := opts.Progress; progress != nil {
		started := time.Now()
		name, kind := b.Name, lane.kind
		lane.cfg.Progress = func(pr sim.Progress) {
			state := StateSimulating
			if pr.Done {
				state = StateDone
			}
			progress(RunProgress{
				Benchmark:    name,
				Kind:         kind,
				State:        state,
				Cycles:       pr.Cycle,
				Translations: pr.Translations,
				Total:        pr.MaxTranslations,
				Windows:      pr.Windows,
				Elapsed:      time.Since(started),
			})
		}
	}
	return lane, nil
}

// cached consults the lane's persistent cache; on a hit it delivers the
// done progress report (and no simulation events) and returns the
// finished Report.
func (l *laneRun) cached() (*Report, bool) {
	if l.resCache == nil {
		return nil, false
	}
	res, ok := l.resCache.GetContext(l.cfg.Context, l.cacheKey)
	if !ok {
		return nil, false
	}
	if l.progress != nil {
		l.progress(RunProgress{
			Benchmark:    l.bench,
			Kind:         l.kind,
			State:        StateDone,
			Cycles:       res.Cycles,
			Translations: l.cfg.MaxTranslations,
			Total:        l.cfg.MaxTranslations,
			Windows:      res.Windows,
		})
	}
	return reportOf(res), true
}

// finish flushes the lane's trace, files the result in the persistent
// cache and converts it into the public Report.
func (l *laneRun) finish(res *sim.Result) (*Report, error) {
	if l.trace != nil {
		if err := l.trace.Flush(); err != nil {
			return nil, fmt.Errorf("powerchop: flushing trace: %w", err)
		}
	}
	if l.resCache != nil {
		// Best-effort: a failed store is counted by the cache and must
		// not fail a run that produced a good result.
		_ = l.resCache.Put(l.cacheKey, res)
	}
	return reportOf(res), nil
}

// defaultBatchCap bounds the lanes one batched simulation group drives
// when Options.Batch is zero. Batching amortizes the shared front-end
// (trace walk, L1, small predictor) across lanes; past ~16 lanes the
// remaining per-lane work dominates and wider groups only cost memory.
const defaultBatchCap = 16

// batchCap resolves an Options.Batch value into a concrete group cap.
func batchCap(batch int) int {
	if batch <= 0 {
		return defaultBatchCap
	}
	return batch
}

// RunBatch simulates the benchmark once per option set and returns the
// Reports in input order. Every Report is byte-identical to what
// Run(benchmark, optsList[i]) returns; the batch exists purely to
// amortize the shared instruction-stream work across the variants (see
// DESIGN.md "Batched sweep execution"). Lanes whose results are already
// in the persistent cache are served from it without simulating; cold
// lanes with an event-stream consumer attached (TraceWriter, Tracer,
// Metrics, Audit, Telemetry) fall back to solo simulation transparently. The
// first option set's Batch field caps the lanes per simulation group.
func RunBatch(benchmark string, optsList []Options) ([]*Report, error) {
	return RunBatchContext(context.Background(), benchmark, optsList)
}

// RunBatchContext is RunBatch under a context. When ctx carries a span
// the batch executes under a "benchbatch" child span.
func RunBatchContext(ctx context.Context, benchmark string, optsList []Options) ([]*Report, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	var batch int
	if len(optsList) > 0 {
		batch = optsList[0].Batch
	}
	reports := make([]*Report, len(optsList))
	for lo := 0; lo < len(optsList); lo += batchCap(batch) {
		hi := lo + batchCap(batch)
		if hi > len(optsList) {
			hi = len(optsList)
		}
		chunk, err := runProgramBatch(ctx, p, b, optsList[lo:hi])
		if err != nil {
			return nil, err
		}
		copy(reports[lo:hi], chunk)
	}
	return reports, nil
}

// runProgramBatch executes one built program under several option sets
// through a single batched simulation: lanes are prepared exactly like
// solo runs (same cache keys, same progress reports), cache hits are
// served without simulating, and the cold remainder goes through
// sim.RunBatch in one group.
func runProgramBatch(ctx context.Context, p *program.Program, b workload.Benchmark, optsList []Options) (reps []*Report, err error) {
	ctx, sp := span.Start(ctx, "benchbatch",
		"bench="+b.Name, fmt.Sprintf("lanes=%d", len(optsList)))
	defer func() { sp.EndErr(err) }()
	reports := make([]*Report, len(optsList))
	lanes := make([]*laneRun, len(optsList))
	var cold []int
	for i, o := range optsList {
		lane, err := prepareRun(ctx, p, b, o)
		if err != nil {
			return nil, fmt.Errorf("powerchop: batch lane %d: %w", i, err)
		}
		lanes[i] = lane
		if rep, ok := lane.cached(); ok {
			reports[i] = rep
			continue
		}
		cold = append(cold, i)
	}
	if len(cold) > 0 {
		cfgs := make([]sim.Config, len(cold))
		for j, i := range cold {
			cfgs[j] = lanes[i].cfg
		}
		results, err := sim.RunBatch(p, cfgs)
		if err != nil {
			return nil, err
		}
		for j, i := range cold {
			rep, err := lanes[i].finish(results[j])
			if err != nil {
				return nil, err
			}
			reports[i] = rep
		}
	}
	return reports, nil
}

// cacheKeyFor derives the persistent-cache key for a public Run. The
// manager field is the policy fingerprint — the registered policy name
// plus the canonical rendering of its fully resolved parameters — so
// every input that shapes the manager is in the key, and two processes
// sweeping the same parameter grid share entries exactly.
func cacheKeyFor(p *program.Program, design arch.Design, fingerprint string, opts Options, maxTranslations uint64) rescache.Key {
	return rescache.Key{
		Program: p.Digest(),
		Design:  rescache.Fingerprint(design),
		Manager: fingerprint,
		Config: fmt.Sprintf("translations=%d sample=%d",
			maxTranslations, opts.SampleInterval),
	}
}

// reportOf flattens a simulator result into the public Report.
func reportOf(res *sim.Result) *Report {
	r := &Report{
		Benchmark:    res.Benchmark,
		Suite:        res.Suite,
		Arch:         res.Arch,
		Manager:      res.Manager,
		Cycles:       res.Cycles,
		Instructions: res.GuestInsns,
		IPC:          res.IPC,
		Seconds:      res.Seconds,
		VPU: unitReportOf(res, arch.UnitVPU, UnitReport{
			GatedFrac:          res.VPU.GatedFrac,
			SwitchesPerMCycles: res.VPU.SwitchesPerM,
		}),
		BPU: unitReportOf(res, arch.UnitBPU, UnitReport{
			GatedFrac:          res.BPU.GatedFrac,
			SwitchesPerMCycles: res.BPU.SwitchesPerM,
		}),
		MLC: unitReportOf(res, arch.UnitMLC, UnitReport{
			GatedFrac:          res.MLC.GatedFrac,
			OneWayFrac:         res.MLC.OneWayFrac,
			HalfFrac:           res.MLC.HalfFrac,
			SwitchesPerMCycles: res.MLC.SwitchesPerM,
		}),
		AvgPowerW:      res.Power.AvgPowerW(),
		AvgLeakageW:    res.Power.AvgLeakageW(),
		TotalEnergyJ:   res.Power.TotalEnergyJ(),
		MispredictRate: res.MispredictRate(),
		PVTHitRate:     res.PVT.HitRate(),
		CDEInvocations: res.CDE.Invocations,
	}
	if res.MLCAccesses > 0 {
		r.MLCHitRate = float64(res.MLCHits) / float64(res.MLCAccesses)
	}
	r.PhasesSeen = res.KnownPhases
	for _, s := range res.Samples {
		r.Samples = append(r.Samples, Sample{
			Instructions: s.Insns,
			IPC:          s.IPC,
			VectorOps:    s.VectorOps,
		})
	}
	if res.Metrics != nil {
		r.Metrics = metricsReportOf(res.Metrics)
	}
	if res.Audit != nil {
		r.Audit = auditReportOf(res.Audit)
	}
	return r
}

// unitReportOf completes a unit's public report with its leakage-energy
// triple from the power accountant.
func unitReportOf(res *sim.Result, unit string, u UnitReport) UnitReport {
	pu := res.Power.Unit(unit)
	u.LeakageJ = pu.LeakageJ
	u.FullLeakageJ = pu.FullLeakageJ
	u.LeakageSavedJ = pu.LeakSavedJ
	return u
}

// Comparison is the paper's three-way configuration study for one
// benchmark (Figure 12's per-app data plus power).
type Comparison struct {
	Benchmark string
	FullPower *Report
	PowerChop *Report
	MinPower  *Report
}

// Slowdown returns PowerChop's performance loss vs full power.
func (c *Comparison) Slowdown() float64 {
	return c.PowerChop.Cycles/c.FullPower.Cycles - 1
}

// MinPowerLoss returns the minimally-powered core's performance loss.
func (c *Comparison) MinPowerLoss() float64 {
	return 1 - c.FullPower.Cycles/c.MinPower.Cycles
}

// PowerReduction returns PowerChop's total power reduction vs full power.
func (c *Comparison) PowerReduction() float64 {
	return 1 - c.PowerChop.AvgPowerW/c.FullPower.AvgPowerW
}

// LeakageReduction returns PowerChop's leakage power reduction.
func (c *Comparison) LeakageReduction() float64 {
	return 1 - c.PowerChop.AvgLeakageW/c.FullPower.AvgLeakageW
}

// EnergyReduction returns PowerChop's total energy reduction.
func (c *Comparison) EnergyReduction() float64 {
	return 1 - c.PowerChop.TotalEnergyJ/c.FullPower.TotalEnergyJ
}

// Compare runs the benchmark under full-power, PowerChop and min-power.
// With Options.Parallelism above one (and no TraceWriter) the three runs
// execute concurrently; otherwise (unless Options.Batch is 1 or a
// TraceWriter is attached) they share one batched simulation, which is
// byte-identical to the serial runs but roughly twice as fast cold.
func Compare(benchmark string, opts Options) (*Comparison, error) {
	c := &Comparison{Benchmark: benchmark}
	configs := []struct {
		manager string
		into    **Report
	}{
		{ManagerFullPower, &c.FullPower},
		{ManagerPowerChop, &c.PowerChop},
		{ManagerMinPower, &c.MinPower},
	}
	run := func(manager string, into **Report) error {
		o := opts
		o.Manager = manager
		rep, err := Run(benchmark, o)
		if err != nil {
			return err
		}
		*into = rep
		return nil
	}
	if opts.Parallelism > 1 && opts.TraceWriter == nil {
		errs := make([]error, len(configs))
		var wg sync.WaitGroup
		for i, cfg := range configs {
			wg.Add(1)
			go func(i int, manager string, into **Report) {
				defer wg.Done()
				errs[i] = run(manager, into)
			}(i, cfg.manager, cfg.into)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	if opts.Batch != 1 && opts.TraceWriter == nil {
		optsList := make([]Options, len(configs))
		for i, cfg := range configs {
			optsList[i] = opts
			optsList[i].Manager = cfg.manager
		}
		reps, err := RunBatch(benchmark, optsList)
		if err != nil {
			return nil, err
		}
		for i, cfg := range configs {
			*cfg.into = reps[i]
		}
		return c, nil
	}
	for _, cfg := range configs {
		if err := run(cfg.manager, cfg.into); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SortedBenchmarks returns benchmark names sorted alphabetically.
func SortedBenchmarks() []string {
	names := Benchmarks()
	sort.Strings(names)
	return names
}
