package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// reqRecord is one completed client request.
type reqRecord struct {
	id      string
	q       request
	lat     time.Duration
	repeat  bool
	err     error
	started time.Time
}

// loadGen sends requests to one server over at most conns connections
// and checks every reply against its recorded digest.
type loadGen struct {
	r     *run
	srv   *server
	cl    *client
	conns int

	mu   sync.Mutex
	seen map[string]bool
	recs []reqRecord
	n    atomic.Int64
}

func newLoadGen(r *run, srv *server, conns int) *loadGen {
	return &loadGen{r: r, srv: srv, cl: newClient(conns), conns: conns, seen: map[string]bool{}}
}

// do sends one request and records it.
func (g *loadGen) do(q request) reqRecord {
	done := g.r.worker()
	defer done()
	rec := reqRecord{id: fmt.Sprintf("perfbench-%d", g.n.Add(1)), q: q, started: time.Now()}
	g.mu.Lock()
	rec.repeat = g.seen[q.key()]
	g.seen[q.key()] = true
	g.mu.Unlock()
	body, err := g.cl.getID(g.srv.url+q.path(), rec.id)
	rec.lat = time.Since(rec.started)
	if err == nil {
		err = match(q.key(), g.r.golden.Serve[q.key()], body)
	}
	rec.err = err
	g.r.op(q.key(), err)
	g.mu.Lock()
	g.recs = append(g.recs, rec)
	g.mu.Unlock()
	return rec
}

// pool sends requests from next until it reports false, with conns
// clients in a closed loop (each sends its next request only after its
// previous reply). A client that hits an error pauses briefly, so a dead
// server yields a bounded stream of failed requests.
func (g *loadGen) pool(next func() (request, bool)) {
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				q, ok := next()
				if !ok {
					return
				}
				if rec := g.do(q); rec.err != nil {
					time.Sleep(50 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
}

// listed feeds the requests of qs to a pool, each once.
func listed(qs []request) func() (request, bool) {
	var i atomic.Int64
	return func() (request, bool) {
		k := int(i.Add(1)) - 1
		if k >= len(qs) {
			return request{}, false
		}
		return qs[k], true
	}
}

// records returns a snapshot of the completed requests.
func (g *loadGen) records() []reqRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]reqRecord(nil), g.recs...)
}

// coldRepeats is how many fresh servers the serve workload's cold pass
// runs on; cold_s is the median.
const coldRepeats = 3

// startDir starts a server whose result cache (and, when traced, event
// record) live under dir: dir/servecache and dir/events.jsonl.
func startDir(r *run, dir string, traced bool) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	trace := ""
	if traced {
		trace = filepath.Join(dir, "events.jsonl")
	}
	srv, _, err := startServer(r.cfg.powerchop, filepath.Join(dir, "servecache"), r.nproc, trace)
	return srv, err
}

// serveClients is the serve workload's client count: two, within nproc.
func serveClients(nproc int) int { return min(2, nproc) }

// runServe is the serve workload: the real `powerchop serve -cache DIR`
// binary, a cold pass that sends each of the mix's sixteen distinct
// requests (run and explain for eight pairs) once, then a closed loop of
// two clients sending the seeded, skewed mix for the steady window.
func runServe(r *run) error {
	if err := measureSetup(r); err != nil {
		return err
	}
	conns := serveClients(r.nproc)
	r.note("clients", conns)
	// Cold passes: every request the mix can send, once, each pass on a
	// fresh server; cold_s is their median. The last server goes on to
	// the steady phase.
	var cold []request
	for _, p := range servePairs {
		cold = append(cold, request{"run", p}, request{"explain", p})
	}
	var colds []float64
	var g *loadGen
	var dir string
	for i := 0; i < coldRepeats; i++ {
		if g != nil {
			g.srv.stop()
			g.cl.close()
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("server-%d", i))
		srv, err := startDir(r, dir, r.cfg.trace && i == coldRepeats-1)
		if err != nil {
			return err
		}
		defer srv.stop()
		g = newLoadGen(r, srv, conns)
		t0 := time.Now()
		g.pool(listed(cold))
		colds = append(colds, time.Since(t0).Seconds())
	}
	defer g.cl.close()
	srv := g.srv
	r.set("cold_s", median(colds), "s")
	r.note("cold_samples", len(colds))
	coldN := len(g.records())

	// Steady phase: the closed loop over the seeded mix.
	mix := serveMix(r.cfg.seed, 1<<16)
	var j atomic.Int64
	window := time.Duration(r.cfg.seconds * float64(time.Second))
	t1 := time.Now()
	deadline := t1.Add(window)
	if r.cfg.killAfter > 0 {
		go func() {
			time.Sleep(r.cfg.killAfter)
			srv.kill()
		}()
	}
	g.pool(func() (request, bool) {
		if time.Now().After(deadline) {
			return request{}, false
		}
		return mix[int(j.Add(1)-1)%len(mix)], true
	})
	st := steady{window: time.Since(t1)}
	recs := g.records()
	loop := recs[coldN:]
	repeats := 0
	for _, rec := range recs {
		if rec.repeat {
			repeats++
		}
	}
	for _, rec := range loop {
		st.samples = append(st.samples, sample{lat: rec.lat.Seconds(),
			end: rec.started.Add(rec.lat).Sub(t1).Seconds(), failed: rec.err != nil, repeat: rec.repeat})
	}
	st.report(r)
	byKey := map[string][]float64{}
	for _, rec := range recs {
		if rec.err == nil {
			byKey[rec.q.key()] = append(byKey[rec.q.key()], millis(rec.lat))
		}
	}
	medians := map[string]float64{}
	for k, xs := range byKey {
		medians[k] = median(xs)
	}
	r.note("p50_ms_by_request", medians)
	r.note("repeat_share", ratio(float64(repeats), float64(len(recs))))
	r.note("requests", len(recs))

	rss := 0.0
	if srv.alive() {
		var err error
		if rss, err = peakRSSMB(srv.pid); err != nil {
			return err
		}
	}
	r.set("peak_rss_mb", rss, "MB")
	if !r.cfg.trace {
		return nil
	}
	if err := serverLayers(r, g, dir, loop, st.window, true); err != nil {
		return err
	}
	var benches []string
	seen := map[string]bool{}
	for _, p := range servePairs {
		if !seen[p.bench] {
			seen[p.bench] = true
			benches = append(benches, p.bench)
		}
	}
	// /api/run simulates at the default two schedule passes.
	return replayLayers(r, benches, func(s int) uint64 { return uint64(2 * float64(s)) })
}

// serverLayers sets the HTTP and server metrics of a traced server
// started on dir (dir/servecache, dir/events.jsonl) from its /metrics
// exposition, its own JSONL span record and the client-side request
// records. When the server is the workload (own), its simulation spans
// and cache counters also set the runner, sim and result-cache metrics.
// It stops the server, which flushes the record.
func serverLayers(r *run, g *loadGen, dir string, recs []reqRecord, window time.Duration, own bool) error {
	var counters map[string]float64
	if g.srv.alive() {
		var err error
		if counters, err = g.cl.scrapeMetrics(g.srv.url); err != nil {
			return err
		}
	}
	g.srv.stop()
	spans := newSpanLog()
	if err := spans.readJSONL(filepath.Join(dir, "events.jsonl")); err != nil {
		return err
	}
	byReq := map[string]*spanRec{}
	tree := spans.tree()
	for _, s := range tree {
		if s.name == "request" {
			byReq[s.attr("req")] = s
		}
	}
	ids := map[string]bool{}
	for _, rec := range recs {
		ids[rec.id] = true
	}
	reqSpans := under(tree, func(s *spanRec) bool { return s.name == "request" && ids[s.attr("req")] })
	printSpanTable(r.out, "serve", reqSpans)

	var runLat, explainLat, server, queue []float64
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		if rec.q.route == "run" {
			runLat = append(runLat, millis(rec.lat))
		} else {
			explainLat = append(explainLat, millis(rec.lat))
		}
		if s := byReq[rec.id]; s != nil {
			server = append(server, s.dur()/1000)
			queue = append(queue, millis(rec.lat)-s.dur()/1000)
		}
	}
	r.set("http.run_ms", median(runLat), "ms")
	r.set("http.explain_ms", median(explainLat), "ms")
	r.set("serve.server_ms", median(server), "ms")
	r.set("serve.queue_ms", median(queue), "ms")
	r.note("server_spans_matched", len(server))

	// Simulation share of request time, and the wait between a request's
	// arrival and its simulation's start.
	var reqUS, simUS float64
	var waits []float64
	for _, s := range reqSpans {
		if s.name != "request" {
			continue
		}
		reqUS += s.dur()
		for _, d := range under([]*spanRec{s}, func(*spanRec) bool { return true }) {
			if d.name == "sim" {
				simUS += d.dur()
				waits = append(waits, (d.start-s.start)/1000)
			}
		}
	}
	r.set("serve.sim_share", ratio(simUS, reqUS), "ratio")
	r.set("serve.events_dropped", counters["serve_events_dropped"], "count")
	if !own {
		return nil
	}
	r.set("runner.queue_wait_ms", mean(waits), "ms")
	setRunnerMetrics(r, reqSpans, window, r.nproc)
	hits, misses := counters["rescache_hit"], counters["rescache_miss"]
	r.set("rescache.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("rescache.stores", counters["rescache_store"], "count")
	r.set("rescache.bypass", counters["rescache_bypass"], "count")
	r.set("rescache.disk_mb", dirMB(filepath.Join(dir, "servecache")), "MB")
	return nil
}

// httpProbe measures the HTTP layer on a workload that does not serve
// (figures, tune): a traced server answers each of the first four pairs'
// run and explain requests once, over the serve workload's client count.
func httpProbe(r *run) error {
	dir := filepath.Join(r.dir, "probe")
	srv, err := startDir(r, dir, true)
	if err != nil {
		return err
	}
	defer srv.stop()
	g := newLoadGen(r, srv, serveClients(r.nproc))
	defer g.cl.close()
	var qs []request
	for _, p := range servePairs[:4] {
		qs = append(qs, request{"run", p}, request{"explain", p})
	}
	g.pool(listed(qs))
	return serverLayers(r, g, dir, g.records(), 0, false)
}
