package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"powerchop"
	"powerchop/internal/obs"
	"powerchop/internal/obs/runlog"
	"powerchop/internal/obs/serve"
)

// writeTestTrace writes a small two-window JSONL trace and returns its
// path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONL(w)
	sig := [obs.MaxSigIDs]uint32{0xaa}
	for _, e := range []obs.Event{
		{Kind: obs.KindWindowClose, Cycle: 1000, Window: 1, SigIDs: sig, SigN: 1, Count: 900},
		{Kind: obs.KindPVTMiss, Cycle: 1000, Window: 1, SigIDs: sig, SigN: 1},
		{Kind: obs.KindGate, Cycle: 1000, Window: 1, Unit: "VPU", Prev: 1, Next: 0.05, Stall: 30},
		{Kind: obs.KindWindowClose, Cycle: 2000, Window: 2, SigIDs: sig, SigN: 1, Count: 950},
		{Kind: obs.KindPVTHit, Cycle: 2000, Window: 2, SigIDs: sig, SigN: 1, Policy: 0xF},
	} {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdTraceTimeline(t *testing.T) {
	path := writeTestTrace(t)
	var out bytes.Buffer
	if err := cmdTrace([]string{"timeline", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"timeline: 2 windows", "VPU", "miss", "hit", "<taa>"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, out.String())
		}
	}
	// -last trims old windows.
	out.Reset()
	if err := cmdTrace([]string{"timeline", "-last", "1", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("timeline -last 1 did not trim:\n%s", out.String())
	}
	if err := cmdTrace([]string{"timeline"}, &out); err == nil {
		t.Error("timeline without a file accepted")
	}
}

func TestCmdTraceChrome(t *testing.T) {
	path := writeTestTrace(t)
	outPath := filepath.Join(t.TempDir(), "chrome.json")
	var out bytes.Buffer
	if err := cmdTrace([]string{"chrome", "-o", outPath, path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), outPath) {
		t.Errorf("chrome export did not report its output file: %q", out.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	// Default output is stdout.
	out.Reset()
	if err := cmdTrace([]string{"chrome", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "traceEvents") {
		t.Errorf("chrome stdout export: %q", out.String()[:min(80, out.Len())])
	}
}

func TestRunFlagsHTTP(t *testing.T) {
	a, err := runFlags([]string{"-bench", "gobmk", "-http", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if a.httpAddr != "127.0.0.1:0" {
		t.Fatalf("httpAddr = %q", a.httpAddr)
	}
}

// TestServeMonitorAPI exercises the serve subcommand's wiring without a
// real listener: API metadata endpoints, a cheap figure render, error
// paths, and /metrics conformance.
func TestServeMonitorAPI(t *testing.T) {
	l, err := newServeMonitor(0.02, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.mon.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/api/figures")
	if code != http.StatusOK || !strings.Contains(body, "fig12") {
		t.Fatalf("/api/figures: %d %q", code, body)
	}
	code, body = get("/api/benchmarks")
	if code != http.StatusOK || !strings.Contains(body, "gobmk") {
		t.Fatalf("/api/benchmarks: %d", code)
	}
	// table1 renders without simulating, so it is cheap.
	code, body = get("/api/figure?id=table1")
	if code != http.StatusOK || !strings.Contains(body, "Table I") {
		t.Fatalf("/api/figure?id=table1: %d %q", code, body)
	}
	if code, _ = get("/api/figure"); code != http.StatusBadRequest {
		t.Fatalf("missing id: %d", code)
	}
	if code, _ = get("/api/figure?id=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}
	if code, _ = get("/api/run"); code != http.StatusBadRequest {
		t.Fatalf("missing bench: %d", code)
	}
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if err := serve.CheckExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics nonconformant: %v\n%s", err, body)
	}
	code, body = get("/progress")
	if code != http.StatusOK || !strings.Contains(body, "runs") {
		t.Fatalf("/progress: %d %q", code, body)
	}
}

// TestServeAPIRun runs a real (tiny) benchmark through /api/run and
// checks the report comes back and the board saw the run.
func TestServeAPIRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark; skipped with -short")
	}
	l, err := newServeMonitor(0.02, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.mon.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/run?bench=namd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/run: %d %s", resp.StatusCode, body)
	}
	var rep struct {
		Benchmark string
		Cycles    float64
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "namd" || rep.Cycles <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	snap := l.mon.Board().Snapshot()
	if len(snap.Runs) == 0 || snap.Counts[serve.StateDone] == 0 {
		t.Fatalf("board after /api/run: %+v", snap)
	}
}

// testServer is a serve-subcommand monitor behind an httptest listener.
type testServer struct {
	t   *testing.T
	l   *liveMonitor
	url string
}

func newTestServer(t *testing.T, cacheDir string) *testServer {
	t.Helper()
	l, err := newServeMonitor(0.02, 2, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.mon.Handler())
	t.Cleanup(srv.Close)
	return &testServer{t: t, l: l, url: srv.URL}
}

// get fetches path and returns the status code and body.
func (s *testServer) get(path string) (int, string) {
	s.t.Helper()
	resp, err := http.Get(s.url + path)
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		s.t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// ok fetches path and fails the test unless it answers 200.
func (s *testServer) ok(path string) string {
	s.t.Helper()
	code, body := s.get(path)
	if code != http.StatusOK {
		s.t.Fatalf("%s: %d %s", path, code, body)
	}
	return body
}

// metric reads one unlabeled sample from /metrics (0 when absent).
func (s *testServer) metric(name string) float64 {
	s.t.Helper()
	for _, line := range strings.Split(s.ok("/metrics"), "\n") {
		if v, found := strings.CutPrefix(line, name+" "); found {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				s.t.Fatalf("/metrics %s: %v", name, err)
			}
			return f
		}
	}
	return 0
}

// TestServeAPIRunCached pins the server's use of its -cache store:
// repeated /api/run requests are served from the cache byte-identically,
// /api/explain stays a live audited run (one counted bypass each), and a
// figure whose runs are all cached renders from hits alone.
func TestServeAPIRunCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates benchmarks; skipped with -short")
	}
	dir := t.TempDir()
	s := newTestServer(t, dir)

	first := s.ok("/api/run?bench=namd")
	second := s.ok("/api/run?bench=namd")
	if first != second {
		t.Error("cached /api/run reply differs from the live one")
	}
	if hit, store := s.metric("rescache_hit"), s.metric("rescache_store"); hit != 1 || store != 1 {
		t.Errorf("after two /api/run: rescache_hit %v, rescache_store %v; want 1, 1", hit, store)
	}

	var explains []string
	for i := 1; i <= 2; i++ {
		explains = append(explains, s.ok("/api/explain?bench=namd"))
		if n := s.metric("rescache_bypass"); n != float64(i) {
			t.Errorf("after %d /api/explain: rescache_bypass %v, want %d", i, n, i)
		}
	}
	if explains[0] != explains[1] {
		t.Error("/api/explain replies differ")
	}

	const fig = "/api/figure?id=fig2"
	cold := s.ok(fig)
	before := map[string]float64{}
	for _, name := range []string{"rescache_miss", "rescache_bypass", "rescache_store"} {
		before[name] = s.metric(name)
	}
	if again := s.ok(fig); again != cold {
		t.Error("repeated figure render differs from the first")
	}
	for name, n := range before {
		if after := s.metric(name); after != n {
			t.Errorf("repeated figure render: %s %v -> %v, want unchanged", name, n, after)
		}
	}
	// A restarted server over the same directory renders the figure
	// entirely from the cache: hits only, no misses, bypasses or stores.
	r := newTestServer(t, dir)
	warm := r.ok(fig)
	if warm != cold {
		t.Error("warm figure render differs from the cold one")
	}
	if hit := r.metric("rescache_hit"); hit == 0 {
		t.Error("warm figure render hit nothing")
	}
	for _, name := range []string{"rescache_miss", "rescache_bypass", "rescache_store"} {
		if n := r.metric(name); n != 0 {
			t.Errorf("warm figure render: %s %v, want 0", name, n)
		}
	}
}

// TestServeRunHistoryOwnCacheCounts pins per-request cache attribution
// in the run history: a hit served while another request's miss is
// simulating journals one hit, and the miss journals one miss — neither
// is charged the other's lookup.
func TestServeRunHistoryOwnCacheCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates benchmarks; skipped with -short")
	}
	s := newTestServer(t, t.TempDir())
	s.ok("/api/run?bench=namd") // warm namd

	misses := func() float64 { return s.metric("rescache_miss") }
	slow := make(chan string)
	go func() {
		code, body := s.get("/api/run?bench=gobmk")
		if code != http.StatusOK {
			body = "error: " + body
		}
		slow <- body
	}()
	// Wait until the gobmk request has looked the cache up and is
	// simulating, then serve the namd hit inside its lifetime.
	for deadline := time.Now().Add(time.Minute); misses() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gobmk request never looked the cache up")
		}
	}
	s.ok("/api/run?bench=namd")
	if body := <-slow; strings.HasPrefix(body, "error: ") {
		t.Fatal(body)
	}

	recs, _, err := s.l.mon.RunLog().List(runlog.Filter{Kind: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("journal has %d run records, want 3", len(recs))
	}
	var hits, missed int
	for _, rec := range recs {
		switch {
		case rec.Name == "gobmk" && rec.CacheHits == 0 && rec.CacheMisses == 1:
			missed++
		case rec.Name == "namd" && rec.CacheHits == 1 && rec.CacheMisses == 0:
			hits++
		case rec.Name == "namd" && rec.CacheHits == 0 && rec.CacheMisses == 1:
			// The warm-up run.
		default:
			t.Errorf("record %s: %d hits, %d misses", rec.Name, rec.CacheHits, rec.CacheMisses)
		}
	}
	if hits != 1 || missed != 1 {
		t.Errorf("journal: %d namd hits, %d gobmk misses; want 1 each", hits, missed)
	}
}

// TestServeAPIErrorStatus pins the 4xx/5xx split on the run routes: the
// caller's faults answer 404 (unknown benchmark) or 400 (missing or
// invalid parameters), a failed simulation answers 500.
func TestServeAPIErrorStatus(t *testing.T) {
	s := newTestServer(t, "")
	for _, route := range []string{"/api/run", "/api/explain"} {
		for _, tc := range []struct {
			query string
			want  int
		}{
			{"", http.StatusBadRequest},
			{"?bench=nope", http.StatusNotFound},
			{"?bench=namd&manager=nope", http.StatusBadRequest},
		} {
			if code, body := s.get(route + tc.query); code != tc.want {
				t.Errorf("%s%s: %d %q, want %d", route, tc.query, code, body, tc.want)
			}
		}
	}

	// No request parameter can make a simulation fail, so the 500 class
	// is pinned on the classifier with a real failed run: its trace
	// output breaks.
	_, simErr := powerchop.Run("namd", powerchop.Options{Passes: 0.05, TraceWriter: brokenWriter{}})
	_, benchErr := powerchop.Run("nope", powerchop.Options{})
	_, paramErr := powerchop.Run("namd", powerchop.Options{Params: map[string]float64{"vpu": 2}})
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"unknown benchmark", benchErr, http.StatusNotFound},
		{"invalid parameter", paramErr, http.StatusBadRequest},
		{"failed simulation", simErr, http.StatusInternalServerError},
	} {
		if tc.err == nil {
			t.Fatalf("%s: run did not fail", tc.name)
		}
		if got := runErrorStatus(tc.err); got != tc.want {
			t.Errorf("%s (%v): status %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// brokenWriter fails every write.
type brokenWriter struct{}

func (brokenWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
