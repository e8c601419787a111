package powerchop

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/rescache"
)

// TestWarmCacheFiguresByteIdentical is the result cache's contract test:
// rendering the full figure set uncached, cold-cached (populating the
// store) and warm-cached (serving from it) must produce byte-identical
// output. Any divergence means a cached Result fails to reconstruct
// something a live run reports.
func TestWarmCacheFiguresByteIdentical(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("renders the full figure set")
	}
	const scale = 0.02
	render := func(opts ...FigureOption) string {
		var buf bytes.Buffer
		if err := NewFigureRunner(scale, opts...).RenderAll(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	uncached := render()
	cache := rescache.New(t.TempDir(), nil)
	cold := render(WithCache(cache))
	if st := cache.Stats(); st.Stores == 0 {
		t.Fatalf("cold render stored nothing: %+v", st)
	}
	before := cache.Stats()
	warm := render(WithCache(cache))
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("warm render hit nothing: %+v", st)
	}
	// A warm render simulates nothing: every run, the powertrace
	// figure's telemetry run included, is served from the cache.
	if st.Misses != before.Misses || st.Bypass != before.Bypass || st.Stores != before.Stores {
		t.Errorf("warm render missed %d, bypassed %d and stored %d times, want 0 each",
			st.Misses-before.Misses, st.Bypass-before.Bypass, st.Stores-before.Stores)
	}

	if cold != uncached {
		t.Error("cold-cache render differs from uncached render")
	}
	if warm != uncached {
		t.Error("warm-cache render differs from uncached render")
	}
}

// TestRunCacheHitMatchesLiveRun pins the public Run API's cache path: a
// cache-hit Report (including the manager-derived PhasesSeen, which must
// travel inside the cached Result) equals the live run's.
func TestRunCacheHitMatchesLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark twice")
	}
	opts := Options{Passes: 0.3, Cache: rescache.New(t.TempDir(), nil)}
	live, err := Run("bzip2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Cache.Stats(); st.Stores != 1 {
		t.Fatalf("live run stored %d entries, want 1", st.Stores)
	}
	cached, err := Run("bzip2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("second run hit %d times, want 1: %+v", st.Hits, st)
	}
	if cached.Cycles != live.Cycles || cached.TotalEnergyJ != live.TotalEnergyJ {
		t.Errorf("cached run diverges: cycles %v vs %v, energy %v vs %v",
			cached.Cycles, live.Cycles, cached.TotalEnergyJ, live.TotalEnergyJ)
	}
	if cached.PhasesSeen != live.PhasesSeen {
		t.Errorf("PhasesSeen: cached %d, live %d", cached.PhasesSeen, live.PhasesSeen)
	}
}

// TestRunCacheBypassedForObservers pins the bypass rule: each consumer
// that records the whole event stream (the JSONL trace, metrics, the
// audit trail) disables the cache — counted, not silent — because a
// cached Result cannot replay what it records.
func TestRunCacheBypassedForObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark per observer")
	}
	for _, tc := range []struct {
		name    string
		observe func(*Options)
	}{
		{"TraceWriter", func(o *Options) { o.TraceWriter = io.Discard }},
		{"Metrics", func(o *Options) { o.Metrics = true }},
		{"Audit", func(o *Options) { o.Audit = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := rescache.New(t.TempDir(), nil)
			opts := Options{Passes: 0.3, Cache: cache}
			tc.observe(&opts)
			if _, err := Run("bzip2", opts); err != nil {
				t.Fatal(err)
			}
			st := cache.Stats()
			if st.Bypass != 1 || st.Stores != 0 || st.Hits != 0 || st.Misses != 0 {
				t.Fatalf("stats = %+v, want exactly one bypass and no lookups or stores", st)
			}
		})
	}
}

// simEvents returns the recorded simulation events, dropping the
// service-layer span events.
func simEvents(r *eventRecorder) []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []obs.Event
	for _, e := range r.events {
		if !obs.IsSpanKind(e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

// TestRunCacheServesTracedRuns pins the other half of the rule: a live
// Tracer keeps the cache. A miss simulates live — its tracer sees the
// same simulation events as an uncached traced run — and is filed once;
// the following hit emits no simulation events and returns a Report
// byte-identical to an untraced live run's.
func TestRunCacheServesTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark three times")
	}
	const bench = "bzip2"
	untraced, err := Run(bench, Options{Passes: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(untraced)
	if err != nil {
		t.Fatal(err)
	}
	var live eventRecorder
	if _, err := Run(bench, Options{Passes: 0.3, Tracer: &live}); err != nil {
		t.Fatal(err)
	}
	liveEvents := simEvents(&live)
	if len(liveEvents) == 0 {
		t.Fatal("uncached traced run emitted no events")
	}

	cache := rescache.New(t.TempDir(), nil)
	var miss eventRecorder
	if _, err := Run(bench, Options{Passes: 0.3, Tracer: &miss, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Stores != 1 || st.Bypass != 0 {
		t.Fatalf("traced miss: stats = %+v, want one miss, one store, no bypass", st)
	}
	if !reflect.DeepEqual(simEvents(&miss), liveEvents) {
		t.Errorf("traced miss emitted %d simulation events, uncached traced run %d (or they differ)",
			len(simEvents(&miss)), len(liveEvents))
	}

	var hit eventRecorder
	var progress []RunProgress
	rep, err := Run(bench, Options{Passes: 0.3, Tracer: &hit, Cache: cache,
		Progress: func(p RunProgress) { progress = append(progress, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Stores != 1 || st.Bypass != 0 {
		t.Fatalf("traced hit: stats = %+v, want one hit and still one store", st)
	}
	if n := len(simEvents(&hit)); n != 0 {
		t.Errorf("traced hit emitted %d simulation events, want 0", n)
	}
	if len(progress) != 1 || progress[0].State != StateDone {
		t.Errorf("traced hit progress = %+v, want one done report", progress)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("traced hit Report JSON differs from the untraced live run's")
	}
}

// TestRunCacheReplaysTelemetry pins the telemetry half of the rule: a
// Telemetry store keeps the cache. A miss simulates live and files the
// run's per-window rows with its result; a hit simulates nothing and
// replays them, leaving a store whose every series, at every level, is
// byte-identical to the live run's — also when the store already holds
// an earlier run's rows.
func TestRunCacheReplaysTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark three times")
	}
	const bench = "bzip2"
	cache := rescache.New(t.TempDir(), nil)
	run := func(manager string, ts *tsdb.Store) *Report {
		t.Helper()
		rep, err := Run(bench, Options{Manager: manager, Passes: 0.3, Telemetry: ts, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	reportJSON := func(rep *Report) []byte {
		t.Helper()
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// A plain entry for the same run must not serve the telemetry run:
	// it holds no rows to replay.
	if _, err := Run(bench, Options{Passes: 0.3, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	liveTS := tsdb.NewStore(tsdb.DefaultConfig())
	live := run(ManagerPowerChop, liveTS)
	if st := cache.Stats(); st.Misses != 2 || st.Stores != 2 || st.Hits != 0 || st.Bypass != 0 {
		t.Fatalf("telemetry miss: stats = %+v, want a second miss and store, no hit or bypass", st)
	}
	if len(liveTS.SeriesNames()) == 0 {
		t.Fatal("live telemetry run filled no series")
	}
	hitTS := tsdb.NewStore(tsdb.DefaultConfig())
	hit := run(ManagerPowerChop, hitTS)
	if st := cache.Stats(); st.Hits != 1 || st.Stores != 2 || st.Bypass != 0 {
		t.Fatalf("telemetry hit: stats = %+v, want one hit and no new store", st)
	}
	if a, b := dumpStore(liveTS), dumpStore(hitTS); a != b {
		t.Fatalf("replayed store diverges from live store:\nlive:\n%.2000s\nreplay:\n%.2000s", a, b)
	}
	if !bytes.Equal(reportJSON(hit), reportJSON(live)) {
		t.Error("telemetry hit Report JSON differs from the live run's")
	}

	// A second configuration on top of each store: live into the store
	// the live run filled, replayed into the one the hit filled.
	run(ManagerTimeout, liveTS)
	if st := cache.Stats(); st.Misses != 3 || st.Stores != 3 {
		t.Fatalf("second live run: stats = %+v, want a third miss and store", st)
	}
	run(ManagerTimeout, hitTS)
	if st := cache.Stats(); st.Hits != 2 || st.Stores != 3 {
		t.Fatalf("second replay: stats = %+v, want a second hit and no new store", st)
	}
	if a, b := dumpStore(liveTS), dumpStore(hitTS); a != b {
		t.Fatalf("replay onto earlier rows diverges from live:\nlive:\n%.2000s\nreplay:\n%.2000s", a, b)
	}
}
