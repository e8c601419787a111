package serve

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Run states reported on the progress board. They mirror the runner's
// lifecycle: a run is queued when registered, simulating once it holds a
// worker slot, and done or error when it completes.
const (
	StateQueued     = "queued"
	StateSimulating = "simulating"
	StateDone       = "done"
	StateError      = "error"
)

// RunUpdate is one progress report about a (benchmark, kind) run. Updates
// are partial: zero-valued numeric fields leave the board's previous
// values in place, so a bare state transition does not erase the cycle
// counts reported earlier.
type RunUpdate struct {
	Benchmark    string        `json:"benchmark"`
	Kind         string        `json:"kind"`
	State        string        `json:"state"`
	Cycles       float64       `json:"cycles,omitempty"`
	Translations uint64        `json:"translations,omitempty"`
	Total        uint64        `json:"total,omitempty"` // translation budget for the run
	Elapsed      time.Duration `json:"-"`
	Err          string        `json:"error,omitempty"`
}

// boardRow is the board's retained state for one run.
type boardRow struct {
	RunUpdate
	started time.Time // wall clock at transition to simulating
	elapsed time.Duration
}

// Board aggregates RunUpdates into a point-in-time JSON snapshot served
// at /progress. Safe for concurrent use.
type Board struct {
	mu   sync.Mutex
	rows map[string]*boardRow
	now  func() time.Time // test seam
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{rows: make(map[string]*boardRow), now: time.Now}
}

// Update merges one progress report into the board.
func (b *Board) Update(u RunUpdate) {
	key := u.Benchmark + "/" + u.Kind
	b.mu.Lock()
	defer b.mu.Unlock()
	row := b.rows[key]
	if row == nil {
		row = &boardRow{}
		b.rows[key] = row
	}
	prev := row.RunUpdate
	row.RunUpdate = u
	// Partial update: keep earlier progress numbers over zero values.
	if u.Cycles == 0 {
		row.Cycles = prev.Cycles
	}
	if u.Translations == 0 {
		row.Translations = prev.Translations
	}
	if u.Total == 0 {
		row.Total = prev.Total
	}
	switch u.State {
	case StateSimulating:
		if prev.State != StateSimulating {
			// A new lifecycle: the first run, or a re-run of a finished one.
			row.started, row.elapsed = b.now(), 0
		}
	case StateDone, StateError:
		// A run that completes without simulating (a result-cache hit)
		// keeps its reported elapsed time, not the age of an earlier run.
		row.elapsed = u.Elapsed
		if u.Elapsed == 0 && prev.State == StateSimulating {
			row.elapsed = b.now().Sub(row.started)
		}
	}
}

// RunStatus is one row of a progress snapshot.
type RunStatus struct {
	RunUpdate
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// ProgressSnapshot is the JSON document served at /progress.
type ProgressSnapshot struct {
	Runs   []RunStatus    `json:"runs"`
	Counts map[string]int `json:"counts"`
}

// Snapshot returns the board's current state, sorted by benchmark then
// kind, with per-state totals. In-flight runs report live elapsed time.
func (b *Board) Snapshot() ProgressSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := ProgressSnapshot{Counts: make(map[string]int)}
	for _, row := range b.rows {
		st := RunStatus{RunUpdate: row.RunUpdate}
		switch {
		case row.elapsed > 0:
			st.ElapsedSeconds = row.elapsed.Seconds()
		case row.State == StateSimulating && !row.started.IsZero():
			st.ElapsedSeconds = b.now().Sub(row.started).Seconds()
		}
		snap.Runs = append(snap.Runs, st)
		snap.Counts[row.State]++
	}
	sort.Slice(snap.Runs, func(i, j int) bool {
		if snap.Runs[i].Benchmark != snap.Runs[j].Benchmark {
			return snap.Runs[i].Benchmark < snap.Runs[j].Benchmark
		}
		return snap.Runs[i].Kind < snap.Runs[j].Kind
	})
	return snap
}

// MarshalJSON renders the current snapshot.
func (b *Board) MarshalJSON() ([]byte, error) {
	return json.Marshal(b.Snapshot())
}
