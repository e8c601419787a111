package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// allKinds is every run configuration the figures use.
var allKinds = []Kind{
	KindFullPower, KindPowerChop, KindMinPower, KindTimeout,
	KindSmallBPU, KindMLCOne, KindChopVPU, KindChopBPU, KindChopMLC,
}

// TestResultSingleflight is the regression test for the duplicate-run
// hole: concurrent Result calls for one key must simulate exactly once,
// with every caller receiving the same cached result.
func TestResultSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	r := NewParallelRunner(0.05, 8)
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	results := make([]interface{}, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize overlap
			res, err := r.Result(context.Background(), b, KindFullPower)
			results[i], errs[i] = res, err
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result object", i)
		}
	}
	if n := r.Simulations(); n != 1 {
		t.Fatalf("%d concurrent Result calls ran %d simulations, want 1", callers, n)
	}
}

// TestResultGoldenSerialVsParallel checks the parallel runner computes
// exactly the serial runner's results: every Kind for one benchmark,
// launched concurrently on a parallel runner, must deep-equal the same
// runs done one at a time.
func TestResultGoldenSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	b, err := workload.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}

	serial := NewParallelRunner(0.05, 1)
	golden := make(map[Kind]interface{}, len(allKinds))
	for _, k := range allKinds {
		res, err := serial.Result(context.Background(), b, k)
		if err != nil {
			t.Fatal(err)
		}
		golden[k] = res
	}

	par := NewParallelRunner(0.05, 8)
	var wg sync.WaitGroup
	got := make([]interface{}, len(allKinds))
	errs := make([]error, len(allKinds))
	for i, k := range allKinds {
		wg.Add(1)
		go func(i int, k Kind) {
			defer wg.Done()
			got[i], errs[i] = par.Result(context.Background(), b, k)
		}(i, k)
	}
	wg.Wait()

	for i, k := range allKinds {
		if errs[i] != nil {
			t.Fatalf("%s: %v", k, errs[i])
		}
		if !reflect.DeepEqual(got[i], golden[k]) {
			t.Errorf("%s: parallel result differs from serial", k)
		}
	}
	if n := par.Simulations(); n != uint64(len(allKinds)) {
		t.Errorf("parallel runner ran %d simulations, want %d", n, len(allKinds))
	}
}

// TestResultErrorNotCached verifies failed flights are dropped so a later
// call retries, preserving the serial cache-on-success semantics.
func TestResultErrorNotCached(t *testing.T) {
	r := NewParallelRunner(1, 2)
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result(context.Background(), b, Kind("bogus")); err == nil {
		t.Fatal("bogus kind ran")
	}
	if _, err := r.Result(context.Background(), b, Kind("bogus")); err == nil {
		t.Fatal("bogus kind cached as a success")
	}
	if n := r.Simulations(); n != 0 {
		t.Fatalf("failed runs counted %d simulations", n)
	}
}

// TestRunnerTracerKeepsCache pins the runner's cache rule: neither a
// Tracer nor a telemetry store turns the persistent cache off. A fresh
// traced runner over a warm cache serves the run without simulating or
// emitting events, and a telemetry hit refills its store from the cached
// per-window rows byte-identically to the live run.
func TestRunnerTracerKeepsCache(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	cache := rescache.New(t.TempDir(), nil)
	ctx := context.Background()

	cold := NewRunner(0.05)
	coldRing := obs.NewRing(1 << 16)
	cold.Tracer, cold.Cache = coldRing, cache
	want, err := cold.Result(ctx, b, KindPowerChop)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Stores != 1 || st.Bypass != 0 {
		t.Fatalf("traced cold run: stats = %+v, want one miss and one store", st)
	}
	if coldRing.Total() == 0 {
		t.Fatal("traced cold run emitted no events")
	}

	warm := NewRunner(0.05)
	warmRing := obs.NewRing(1 << 16)
	warm.Tracer, warm.Cache = warmRing, cache
	got, err := warm.Result(ctx, b, KindPowerChop)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Bypass != 0 {
		t.Fatalf("traced warm run: stats = %+v, want one hit", st)
	}
	if n := warm.Simulations(); n != 0 {
		t.Errorf("traced warm run simulated %d times, want 0", n)
	}
	if n := warmRing.Total(); n != 0 {
		t.Errorf("traced warm run emitted %d events, want 0", n)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("cache hit diverges from the traced live run")
	}

	// A telemetry run keys apart from the plain run: the first misses,
	// simulates live and files its per-window rows with the result.
	liveTS := tsdb.NewStore(tsdb.DefaultConfig())
	liveRes, err := warm.Telemetry(ctx, b, KindPowerChop, liveTS)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 || st.Stores != 2 || st.Hits != 1 || st.Bypass != 0 {
		t.Errorf("telemetry miss: stats = %+v, want one new miss and one new store", st)
	}
	if n := warm.Simulations(); n != 1 {
		t.Errorf("telemetry miss simulated %d times, want 1", n)
	}
	if len(liveRes.Telemetry) == 0 {
		t.Fatal("live telemetry run kept no rows")
	}

	// The second, on a fresh runner, is served from the cache: nothing
	// simulates, yet the store it fills is byte-identical to the live one.
	again := NewRunner(0.05)
	againRing := obs.NewRing(1 << 16)
	again.Tracer, again.Cache = againRing, cache
	hitTS := tsdb.NewStore(tsdb.DefaultConfig())
	hitRes, err := again.Telemetry(ctx, b, KindPowerChop, hitTS)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 2 || st.Stores != 2 || st.Bypass != 0 {
		t.Errorf("telemetry hit: stats = %+v, want one new hit and no new store", st)
	}
	if n := again.Simulations(); n != 0 {
		t.Errorf("telemetry hit simulated %d times, want 0", n)
	}
	if n := againRing.Total(); n != 0 {
		t.Errorf("telemetry hit emitted %d events, want 0", n)
	}
	if live, hit := dumpStore(liveTS), dumpStore(hitTS); live != hit {
		t.Fatalf("replayed store diverges from live store:\nlive:\n%.2000s\nreplay:\n%.2000s", live, hit)
	}
	withoutRows := func(res *sim.Result) []byte {
		c := *res
		c.Telemetry = nil
		out, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(withoutRows(hitRes), withoutRows(liveRes)) {
		t.Error("telemetry hit Result diverges from the live telemetry run's")
	}
	if !bytes.Equal(withoutRows(liveRes), wantJSON) {
		t.Error("telemetry run Result, rows removed, diverges from the plain run's")
	}
}

// dumpStore renders every series' every level for byte comparison (as
// the root package's telemetry identity test does).
func dumpStore(ts *tsdb.Store) string {
	var b bytes.Buffer
	for _, name := range ts.SeriesNames() {
		for _, l := range ts.Levels() {
			fmt.Fprintf(&b, "%s@%d: %+v\n", name, l.Bucket, ts.LevelBuckets(name, l.Bucket))
		}
	}
	return b.String()
}

// TestDesignFingerprintsMatch pins the memoized design fingerprints to
// what rescache.Fingerprint renders for each design point, so cache
// entries written before the memo keep hitting.
func TestDesignFingerprintsMatch(t *testing.T) {
	r := NewRunner(0.05)
	r.Cache = rescache.New(t.TempDir(), nil)
	for _, tc := range []struct {
		bench string
		want  string
	}{
		{"gobmk", rescache.Fingerprint(arch.Server())},
		{"amazon", rescache.Fingerprint(arch.Mobile())},
	} {
		b, err := workload.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		key, ok := r.cacheKey(b, p, kindRun(KindPowerChop), 0, 1)
		if !ok {
			t.Fatal("no key with a cache attached")
		}
		if key.Design != tc.want {
			t.Errorf("%s: Key.Design = %.60q..., want %.60q...", tc.bench, key.Design, tc.want)
		}
	}
}
