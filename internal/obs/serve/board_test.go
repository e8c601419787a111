package serve

import (
	"encoding/json"
	"testing"
	"time"
)

func TestBoardLifecycle(t *testing.T) {
	b := NewBoard()
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	b.Update(RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: StateQueued, Total: 5000})
	b.Update(RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: StateSimulating})
	clock = clock.Add(2 * time.Second)
	b.Update(RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: StateSimulating,
		Cycles: 1e6, Translations: 2500})
	b.Update(RunUpdate{Benchmark: "astar", Kind: "full-power", State: StateQueued})

	snap := b.Snapshot()
	if len(snap.Runs) != 2 {
		t.Fatalf("runs = %d", len(snap.Runs))
	}
	// Sorted by benchmark: astar first.
	if snap.Runs[0].Benchmark != "astar" || snap.Runs[1].Benchmark != "mcf" {
		t.Fatalf("sort order: %+v", snap.Runs)
	}
	mcf := snap.Runs[1]
	// Partial update must not wipe the translation budget.
	if mcf.Total != 5000 || mcf.Translations != 2500 || mcf.Cycles != 1e6 {
		t.Errorf("mcf progress = %+v", mcf)
	}
	if mcf.ElapsedSeconds != 2 {
		t.Errorf("live elapsed = %v, want 2", mcf.ElapsedSeconds)
	}
	if snap.Counts[StateQueued] != 1 || snap.Counts[StateSimulating] != 1 {
		t.Errorf("counts = %v", snap.Counts)
	}

	clock = clock.Add(1 * time.Second)
	b.Update(RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: StateDone,
		Cycles: 2e6, Translations: 5000, Elapsed: 3 * time.Second})
	clock = clock.Add(time.Hour) // done rows keep their final elapsed
	snap = b.Snapshot()
	mcf = snap.Runs[1]
	if mcf.State != StateDone || mcf.ElapsedSeconds != 3 {
		t.Errorf("done row = %+v", mcf)
	}

	b.Update(RunUpdate{Benchmark: "astar", Kind: "full-power", State: StateError, Err: "boom"})
	snap = b.Snapshot()
	if snap.Runs[0].State != StateError || snap.Runs[0].Err != "boom" {
		t.Errorf("error row = %+v", snap.Runs[0])
	}
	if snap.Counts[StateDone] != 1 || snap.Counts[StateError] != 1 {
		t.Errorf("final counts = %v", snap.Counts)
	}
}

// TestBoardSharedBenchmarkCollision covers partial-update merging when
// several runs share a benchmark name: runs of different kinds must keep
// independent rows (no cross-contamination of progress numbers), while a
// re-run of the same (benchmark, kind) pair merges into its row.
func TestBoardSharedBenchmarkCollision(t *testing.T) {
	b := NewBoard()
	clock := time.Unix(2000, 0)
	b.now = func() time.Time { return clock }

	// Three kinds of the same benchmark, interleaved, as Compare produces.
	b.Update(RunUpdate{Benchmark: "namd", Kind: "full-power", State: StateSimulating, Total: 1000})
	b.Update(RunUpdate{Benchmark: "namd", Kind: "powerchop", State: StateSimulating, Total: 2000})
	b.Update(RunUpdate{Benchmark: "namd", Kind: "full-power", State: StateSimulating, Cycles: 5e5, Translations: 400})
	b.Update(RunUpdate{Benchmark: "namd", Kind: "powerchop", State: StateSimulating, Cycles: 1e5, Translations: 100})
	b.Update(RunUpdate{Benchmark: "namd", Kind: "min-power", State: StateQueued})

	snap := b.Snapshot()
	if len(snap.Runs) != 3 {
		t.Fatalf("runs = %d, want 3 distinct rows for one benchmark", len(snap.Runs))
	}
	byKind := map[string]RunStatus{}
	for _, r := range snap.Runs {
		if r.Benchmark != "namd" {
			t.Fatalf("unexpected benchmark %q", r.Benchmark)
		}
		byKind[r.Kind] = r
	}
	fp, pc := byKind["full-power"], byKind["powerchop"]
	// Each kind's partial updates merged only with its own row.
	if fp.Total != 1000 || fp.Cycles != 5e5 || fp.Translations != 400 {
		t.Errorf("full-power row contaminated: %+v", fp)
	}
	if pc.Total != 2000 || pc.Cycles != 1e5 || pc.Translations != 100 {
		t.Errorf("powerchop row contaminated: %+v", pc)
	}
	if byKind["min-power"].State != StateQueued {
		t.Errorf("min-power row = %+v", byKind["min-power"])
	}

	// A re-run of the same (benchmark, kind) merges into the existing
	// row: the bare state transition keeps the earlier numbers.
	clock = clock.Add(4 * time.Second)
	b.Update(RunUpdate{Benchmark: "namd", Kind: "powerchop", State: StateDone})
	snap = b.Snapshot()
	byKind = map[string]RunStatus{}
	for _, r := range snap.Runs {
		byKind[r.Kind] = r
	}
	pc = byKind["powerchop"]
	if pc.State != StateDone || pc.Cycles != 1e5 || pc.Total != 2000 {
		t.Errorf("done powerchop row lost progress: %+v", pc)
	}
	if pc.ElapsedSeconds != 4 {
		t.Errorf("elapsed = %v, want 4", pc.ElapsedSeconds)
	}
	// The sibling kinds are untouched by the completion.
	if byKind["full-power"].State != StateSimulating || byKind["full-power"].Cycles != 5e5 {
		t.Errorf("full-power row perturbed by sibling completion: %+v", byKind["full-power"])
	}
	if snap.Counts[StateDone] != 1 || snap.Counts[StateSimulating] != 1 || snap.Counts[StateQueued] != 1 {
		t.Errorf("counts = %v", snap.Counts)
	}
}

// TestBoardRerunElapsed covers repeated runs of one (benchmark, kind):
// a re-run restarts the live clock, and a run that completes without
// simulating (a result-cache hit reports only done) shows its own
// elapsed time rather than the age of the earlier run.
func TestBoardRerunElapsed(t *testing.T) {
	b := NewBoard()
	clock := time.Unix(3000, 0)
	b.now = func() time.Time { return clock }

	b.Update(RunUpdate{Benchmark: "gobmk", Kind: "powerchop", State: StateSimulating})
	clock = clock.Add(5 * time.Second)
	b.Update(RunUpdate{Benchmark: "gobmk", Kind: "powerchop", State: StateDone})
	if got := b.Snapshot().Runs[0].ElapsedSeconds; got != 5 {
		t.Fatalf("first run elapsed = %v, want 5", got)
	}

	clock = clock.Add(time.Minute)
	b.Update(RunUpdate{Benchmark: "gobmk", Kind: "powerchop", State: StateDone})
	if got := b.Snapshot().Runs[0].ElapsedSeconds; got != 0 {
		t.Errorf("cache-hit elapsed = %v, want 0", got)
	}

	b.Update(RunUpdate{Benchmark: "gobmk", Kind: "powerchop", State: StateSimulating})
	clock = clock.Add(2 * time.Second)
	if got := b.Snapshot().Runs[0].ElapsedSeconds; got != 2 {
		t.Errorf("re-run live elapsed = %v, want 2", got)
	}
}

func TestBoardJSON(t *testing.T) {
	b := NewBoard()
	b.Update(RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: StateQueued})
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Benchmark string `json:"benchmark"`
			State     string `json:"state"`
		} `json:"runs"`
		Counts map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].State != StateQueued || doc.Counts[StateQueued] != 1 {
		t.Fatalf("json doc = %s", raw)
	}
}
