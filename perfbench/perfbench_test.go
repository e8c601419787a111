package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// bins holds the perfbench and powerchop binaries built for the tests.
var bins struct{ perfbench, powerchop string }

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	bins.perfbench = filepath.Join(dir, "perfbench")
	bins.powerchop = filepath.Join(dir, "powerchop")
	for _, b := range [][]string{{bins.perfbench, "."}, {bins.powerchop, "powerchop/cmd/powerchop"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic(string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// output is one parsed benchmark run.
type output struct {
	res   result
	lines map[string][2]string // printed metric name -> value, unit
	meta  map[string]any
}

// bench runs perfbench with args and parses what it printed.
func bench(t *testing.T, args ...string) output {
	t.Helper()
	args = append([]string{"-powerchop", bins.powerchop, "-work", t.TempDir()}, args...)
	cmd := exec.Command(bins.perfbench, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("perfbench %v: %v\n%s", args, err, stderr.String())
	}
	o := output{lines: map[string][2]string{}}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		last = line
		if rest, ok := strings.CutPrefix(line, "meta "); ok {
			if err := json.Unmarshal([]byte(rest), &o.meta); err != nil {
				t.Fatalf("meta line: %v", err)
			}
			continue
		}
		if f := strings.Fields(line); len(f) == 3 {
			o.lines[f[0]] = [2]string{f[1], f[2]}
		}
	}
	if err := json.Unmarshal([]byte(last), &o.res); err != nil {
		t.Fatalf("last line %q is not the result: %v", last, err)
	}
	return o
}

// checkMetrics requires every named metric in the result and printed
// with its unit, and the concurrency bounds in the metadata.
func checkMetrics(t *testing.T, o output, names []struct{ name, unit string }) {
	t.Helper()
	if len(o.res.Metrics) != len(names) {
		t.Errorf("result has %d metrics, want %d", len(o.res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := o.res.Metrics[n.name]
		if !ok || m.Unit != n.unit {
			t.Errorf("result metric %s = %+v, want unit %s", n.name, m, n.unit)
		}
		if p := o.lines[n.name]; p[1] != n.unit {
			t.Errorf("printed %s with unit %q, want %q", n.name, p[1], n.unit)
		}
	}
	nproc := float64(runtime.NumCPU())
	for _, k := range []string{"gomaxprocs", "peak_workers", "jobs", "clients"} {
		if v, ok := o.meta[k].(float64); ok && v > nproc {
			t.Errorf("%s = %v exceeds nproc %v", k, v, nproc)
		}
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go_version", "seed", "steady_samples", "tail_percentile", "setup_samples"} {
		if _, ok := o.meta[k]; !ok {
			t.Errorf("metadata lacks %s", k)
		}
	}
}

func TestServeSmoke(t *testing.T) {
	o := bench(t, "-workload", "serve", "-seed", "3", "-seconds", "2", "-trace", "0")
	if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < len(servePairs) {
		t.Fatalf("result %+v", o.res)
	}
	checkMetrics(t, o, endToEnd)
	if o.meta["peak_workers"].(float64) < 1 {
		t.Errorf("no client connection recorded")
	}
}

func TestServeTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replays eight benchmarks")
	}
	o := bench(t, "-workload", "serve", "-seed", "3", "-seconds", "2", "-trace", "1")
	if !o.res.Correct {
		t.Fatalf("result %+v", o.res)
	}
	checkMetrics(t, o, perLayer)
}

// A wrong recorded digest must surface as failed operations.
func TestCorruptDigestFails(t *testing.T) {
	g, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	key := request{route: "run", pair: servePairs[0]}.key()
	g.Serve[key] = strings.Repeat("0", 64)
	b, _ := json.Marshal(g)
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	o := bench(t, "-workload", "serve", "-seconds", "2", "-golden", path)
	if o.res.Correct || o.res.Failed == 0 {
		t.Fatalf("corrupted digest passed: %+v", o.res)
	}
	if frac, _ := strconv.ParseFloat(o.lines["failed_frac"][0], 64); frac <= 0 {
		t.Errorf("failed_frac = %v, want > 0", frac)
	}
}

// A server that dies mid-run leaves failed requests, not missing ones.
func TestKilledServerCountsFailures(t *testing.T) {
	o := bench(t, "-workload", "serve", "-seconds", "3", "-kill-server-after", "1s")
	if o.res.Correct || o.res.Failed == 0 {
		t.Fatalf("killed server passed: %+v", o.res)
	}
	if o.res.Attempted <= o.res.Failed {
		t.Errorf("attempted %d should include the successes before the kill, failed %d", o.res.Attempted, o.res.Failed)
	}
	checkMetrics(t, o, endToEnd)
}

func TestTuneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cold tune takes about 20s")
	}
	o := bench(t, "-workload", "tune", "-seed", "2", "-seconds", "1")
	if !o.res.Correct {
		t.Fatalf("result %+v", o.res)
	}
	checkMetrics(t, o, endToEnd)
}

func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cold figure set takes about 40s")
	}
	o := bench(t, "-workload", "figures", "-seconds", "1")
	if !o.res.Correct {
		t.Fatalf("result %+v", o.res)
	}
	checkMetrics(t, o, endToEnd)
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if v != 90 || pct != 90 || !ok {
		t.Errorf("tail = %v at p%v (%v), want 90 at p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Errorf("ten samples cannot have ten beyond any percentile")
	}
}

func TestSteadyBlocks(t *testing.T) {
	// 600 operations of 10 ms each, one after another, except that the
	// first 50 take 100 ms: a burst confined to the first block.
	st := steady{window: 10 * time.Second}
	end := 0.0
	for i := 0; i < 600; i++ {
		lat := 0.010
		if i < 50 {
			lat = 0.100
		}
		end += lat
		st.samples = append(st.samples, sample{lat: lat, end: end, repeat: true})
	}
	r := &run{metrics: map[string]metric{}, meta: map[string]any{}}
	st.report(r)
	if k := r.meta["steady_blocks"]; k != 6 {
		t.Errorf("blocks = %v, want 6", k)
	}
	if got := r.metrics["tail_ms"].Value; math.Abs(got-10) > 1e-9 {
		t.Errorf("tail_ms = %v, want 10: the burst is one block of six", got)
	}
	if got := r.metrics["req_per_s"].Value; math.Abs(got-100) > 1e-6 {
		t.Errorf("req_per_s = %v, want 100", got)
	}

	// Too few operations for three blocks: one block over the window,
	// and a failure counts at the window length.
	st = steady{window: 2 * time.Second, samples: []sample{
		{lat: 0.5, end: 0.5}, {lat: 0.5, end: 1.0}, {lat: 1.0, end: 2.0, failed: true}}}
	r = &run{metrics: map[string]metric{}, meta: map[string]any{}}
	st.report(r)
	if got := r.metrics["tail_ms"].Value; got != 2000 {
		t.Errorf("tail_ms = %v, want the window, 2000", got)
	}
	if got := r.metrics["req_per_s"].Value; got != 1 {
		t.Errorf("req_per_s = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	p := &spanRec{start: 0, end: 100}
	p.children = []*spanRec{{start: 10, end: 40}, {start: 30, end: 50}, {start: 90, end: 120}}
	if got := selfTime(p); got != 50 {
		t.Errorf("self time = %v, want 50", got)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	if pairKey(tunePair(1)) != "gobmk+soplex" {
		t.Errorf("seed 1 tunes %v, want gobmk+soplex", tunePair(1))
	}
	a, b := serveMix(7, 200), serveMix(7, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("serve mix differs at %d for one seed", i)
		}
	}
	if figuresScale(5) > 0.5 || figuresScale(5) <= 0 {
		t.Errorf("figure scale %v outside (0, 0.5]", figuresScale(5))
	}
}
