package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/rescache"
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

// TestRunnerTracerKeepsCache pins the runner's bypass rule: a Tracer
// does not turn the persistent cache off — a fresh traced runner over a
// warm cache serves the run without simulating or emitting events —
// while a Telemetry run still bypasses it, counting the bypass.
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

	if _, err := warm.Telemetry(ctx, b, KindPowerChop, tsdb.NewStore(tsdb.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Bypass != 1 || st.Stores != 1 || st.Hits != 1 {
		t.Errorf("telemetry run: stats = %+v, want one bypass and no new lookup or store", st)
	}
	if n := warm.Simulations(); n != 1 {
		t.Errorf("telemetry run simulated %d times, want 1", n)
	}
}
