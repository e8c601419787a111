package tsdb

import (
	"slices"
	"sort"
	"sync"

	"powerchop/internal/obs"
)

// Series names the Ingestor emits. Per-unit series append "." plus the
// unit name (e.g. "unit.frac.VPU", "crit.MLC").
const (
	// SeriesInsns is the window's translated dynamic instruction count.
	SeriesInsns = "window.insns"
	// SeriesIPC is the window's instructions per cycle (instruction
	// count over the cycles since the previous window's close).
	SeriesIPC = "window.ipc"
	// SeriesStall is the stall-cycle cost charged at the window's
	// boundary and SeriesGates the gating-transition count.
	SeriesStall = "window.stall"
	SeriesGates = "window.gates"
	// SeriesCDE counts CDE invocations at the boundary.
	SeriesCDE = "window.cde"
	// SeriesPVTHit is the PVT lookup outcome at the boundary: 1 for a
	// hit, 0 for a miss; windows without a lookup emit nothing, so its
	// mean over a range is the hit rate.
	SeriesPVTHit = "pvt.hit"
	// SeriesUnitFracPrefix prefixes each unit's power fraction after the
	// boundary settled (1 = full power, the boot state).
	SeriesUnitFracPrefix = "unit.frac."
	// SeriesCritPrefix prefixes each unit's criticality score; emitted
	// only for windows where the CDE scored the unit.
	SeriesCritPrefix = "crit."
)

// IngestorConfig configures an Ingestor.
type IngestorConfig struct {
	// Units pre-declares the gated units so every window carries one
	// power-fraction sample per unit even before a unit's first gating
	// transition. Units first seen in gate events are added on the fly.
	Units []string
	// KeepRows keeps a copy of every committed row, in commit order, for
	// Rows to return. A run's rows replayed through Store.AppendBatch
	// rebuild exactly what the ingestor wrote, which is how a cached run
	// refills a store without simulating.
	KeepRows bool
}

// Ingestor adapts the obs event stream into Store samples. It replays
// windows exactly like obs.Timeline: a window's row opens at its
// window-close event, collects the boundary machinery that fires before
// the next close (PVT lookup, CDE invocations, gating transitions,
// criticality scores), and flushes when the next window closes or the
// run ends. Window ordinals and cycles from consecutive runs are offset
// so sequential runs through one ingestor concatenate into monotonic
// series; concurrently interleaved runs are merged best-effort (the
// store clamps out-of-order windows into the current bucket).
//
// Ingestor implements obs.Tracer and is safe for concurrent use.
type Ingestor struct {
	store *Store

	mu    sync.Mutex
	units []string
	slot  map[string]int
	fracs []float64

	// Current row, mirroring obs.Timeline's replay.
	open     bool
	window   uint64
	endCycle float64
	insns    uint64
	cde      uint64
	gates    uint64
	stall    float64
	lookup   int8 // -1 none, 0 miss, 1 hit
	scores   []unitScore
	row      []Sample // scratch for the per-window batch commit
	keep     bool
	rows     [][]Sample // committed rows, when keep is set

	prevEnd    float64 // previous window's close cycle (current run)
	lastWindow uint64  // highest window ordinal seen (current run)
	baseWindow uint64  // ordinal offset from completed prior runs
	baseCycle  float64 // cycle offset from completed prior runs
}

type unitScore struct {
	unit  string
	score float64
}

// NewIngestor builds an ingestor feeding the store.
func NewIngestor(store *Store, cfg IngestorConfig) *Ingestor {
	in := &Ingestor{store: store, slot: map[string]int{}, lookup: -1, keep: cfg.KeepRows}
	units := append([]string(nil), cfg.Units...)
	sort.Strings(units)
	for _, u := range units {
		in.addUnit(u)
	}
	return in
}

// addUnit registers a unit slot booted at full power. Caller holds mu
// (or is the constructor).
func (in *Ingestor) addUnit(u string) {
	if _, ok := in.slot[u]; ok {
		return
	}
	in.slot[u] = len(in.units)
	in.units = append(in.units, u)
	in.fracs = append(in.fracs, 1)
}

// Emit implements obs.Tracer.
func (in *Ingestor) Emit(e obs.Event) {
	if obs.IsSpanKind(e.Kind) {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	switch e.Kind {
	case obs.KindWindowClose:
		in.flush()
		in.open = true
		in.window = e.Window
		in.endCycle = e.Cycle
		in.insns = e.Count
		in.cde, in.gates, in.stall = 0, 0, 0
		in.lookup = -1
		in.scores = in.scores[:0]
	case obs.KindPVTHit:
		if in.open {
			in.lookup = 1
		}
	case obs.KindPVTMiss:
		if in.open {
			in.lookup = 0
		}
	case obs.KindCDEInvoke:
		if in.open {
			in.cde++
		}
	case obs.KindCDEScore:
		if in.open && e.Unit != "" {
			in.scores = append(in.scores, unitScore{unit: e.Unit, score: e.Value})
		}
	case obs.KindGate:
		if e.Unit != "" {
			in.addUnit(e.Unit)
			in.fracs[in.slot[e.Unit]] = e.Next
		}
		if in.open {
			in.gates++
			in.stall += e.Stall
		}
	case obs.KindRunEnd:
		in.flush()
		// Offset the next run past this one so concatenated series stay
		// monotonic, and reset per-run state to boot.
		in.baseWindow += in.lastWindow
		if e.Cycle > 0 {
			in.baseCycle += e.Cycle
		} else {
			in.baseCycle += in.prevEnd
		}
		in.lastWindow = 0
		in.prevEnd = 0
		for i := range in.fracs {
			in.fracs[i] = 1
		}
	}
}

// flush commits the open row to the store as one atomic batch, so a
// concurrent reader (the alert evaluator's boundary watermark in
// particular) never observes a window with only part of its series
// appended. Caller holds mu.
func (in *Ingestor) flush() {
	if !in.open {
		return
	}
	in.open = false
	w := in.baseWindow + in.window
	c := in.baseCycle + in.endCycle
	if in.window > in.lastWindow {
		in.lastWindow = in.window
	}

	row := in.row[:0]
	add := func(series string, v float64) {
		row = append(row, Sample{Series: series, Window: w, Cycle: c, Value: v})
	}
	add(SeriesInsns, float64(in.insns))
	if dt := in.endCycle - in.prevEnd; dt > 0 {
		add(SeriesIPC, float64(in.insns)/dt)
	}
	in.prevEnd = in.endCycle
	add(SeriesStall, in.stall)
	add(SeriesGates, float64(in.gates))
	add(SeriesCDE, float64(in.cde))
	if in.lookup >= 0 {
		add(SeriesPVTHit, float64(in.lookup))
	}
	for i, u := range in.units {
		add(SeriesUnitFracPrefix+u, in.fracs[i])
	}
	for _, sc := range in.scores {
		add(SeriesCritPrefix+sc.unit, sc.score)
	}
	in.row = row
	in.store.AppendBatch(row)
	if in.keep {
		// row is scratch reused by the next flush, so keep a copy.
		in.rows = append(in.rows, slices.Clone(row))
	}
}

// Rows returns the rows committed so far, in commit order, when the
// ingestor was built with KeepRows (nil otherwise).
func (in *Ingestor) Rows() [][]Sample {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rows
}

// Flush commits any open row without waiting for the next window close
// or run end. Callers use it to publish the final window of a stream
// that ends without a run-end event.
func (in *Ingestor) Flush() {
	in.mu.Lock()
	in.flush()
	in.mu.Unlock()
}
