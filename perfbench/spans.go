package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"powerchop"
	"powerchop/internal/obs"
	"powerchop/internal/obs/span"
)

// spanRec is one span: wall-clock microseconds, parent link, attributes.
type spanRec struct {
	id, parent uint64
	name       string
	attrs      string
	start, end float64
	ended      bool
	children   []*spanRec
}

func (s *spanRec) dur() float64 { return s.end - s.start }

// attr returns the value of key=value in the span's attributes.
func (s *spanRec) attr(key string) string {
	for _, f := range strings.Fields(s.attrs) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// spanLog collects span events. It is an obs.Tracer, so the benchmark's
// root spans and the program's own sweep/benchmark/sim spans beneath them
// land in one tree; it also parses the spans out of a server's JSONL
// event record.
type spanLog struct {
	mu   sync.Mutex
	byID map[uint64]*spanRec
}

func newSpanLog() *spanLog { return &spanLog{byID: map[uint64]*spanRec{}} }

// Emit implements obs.Tracer; non-span events are ignored.
func (l *spanLog) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindSpanBegin:
		l.mu.Lock()
		l.byID[e.Count] = &spanRec{id: e.Count, parent: uint64(e.Value), name: e.Unit, attrs: e.Detail, start: e.Cycle}
		l.mu.Unlock()
	case obs.KindSpanEnd:
		l.mu.Lock()
		if s := l.byID[e.Count]; s != nil {
			s.end, s.ended = e.Cycle, true
		}
		l.mu.Unlock()
	}
}

// root opens a benchmark-side root span.
func (l *spanLog) root(ctx context.Context, name string, attrs ...string) (context.Context, *span.Span) {
	return span.Root(ctx, l, name, "", attrs...)
}

// readJSONL loads the span events of a JSONL event record, skipping the
// (far more numerous) simulation events without decoding them.
func (l *spanLog) readJSONL(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var spans bytes.Buffer
	rd := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := rd.ReadBytes('\n')
		if bytes.Contains(line, []byte(`"span-`)) {
			spans.Write(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	evs, err := obs.ReadJSONL(&spans)
	if err != nil {
		return err
	}
	for _, e := range evs {
		l.Emit(e)
	}
	return nil
}

// tree links children to parents and returns the finished spans.
func (l *spanLog) tree() []*spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*spanRec
	for _, s := range l.byID {
		s.children = s.children[:0]
	}
	for _, s := range l.byID {
		if !s.ended {
			continue
		}
		out = append(out, s)
		if p := l.byID[s.parent]; p != nil && s.parent != 0 {
			p.children = append(p.children, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// under returns the finished spans whose ancestry reaches a span
// accepted by top (top spans included).
func under(spans []*spanRec, top func(*spanRec) bool) []*spanRec {
	var out []*spanRec
	var walk func(*spanRec)
	walk = func(s *spanRec) {
		out = append(out, s)
		for _, c := range s.children {
			if c.ended {
				walk(c)
			}
		}
	}
	for _, s := range spans {
		if top(s) {
			walk(s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s *spanRec) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range s.children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.dur() - covered
}

// printSpanTable writes, per span name, the count, total and self time.
func printSpanTable(w io.Writer, title string, spans []*spanRec) {
	type agg struct {
		n          int
		total, own float64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.total += s.dur()
		a.own += selfTime(s)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans %s: %-12s %7s %12s %12s\n", title, "name", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "spans %s: %-12s %7d %12.1f %12.1f\n", title, n, a.n, a.total/1000, a.own/1000)
	}
}

// simStats summarizes the simulation spans of a span set: solo sim.Run
// calls, batched groups and their lanes, and the busy time they cover.
type simStats struct {
	solo, groups, lanes int
	busyUS              float64
}

func simSpans(spans []*spanRec) simStats {
	var st simStats
	for _, s := range spans {
		switch s.name {
		case "sim":
			st.solo++
			st.busyUS += s.dur()
		case "simbatch":
			st.groups++
			n, _ := strconv.Atoi(s.attr("lanes"))
			st.lanes += n
			st.busyUS += s.dur()
		}
	}
	return st
}

// setRunnerMetrics sets the sim and runner span metrics for a phase that
// ran with jobs workers for wall time.
func setRunnerMetrics(r *run, spans []*spanRec, wall time.Duration, jobs int) {
	st := simSpans(spans)
	r.set("sim.runs", float64(st.solo), "count")
	r.set("runner.simulations", float64(st.solo+st.lanes), "count")
	r.set("sim.batch.lanes_per_group", ratio(float64(st.lanes), float64(st.groups)), "count")
	r.set("runner.busy_frac", ratio(st.busyUS/1e6, wall.Seconds()*float64(jobs)), "ratio")
}

// progressLog timestamps the runner's queued and simulating reports.
type progressLog struct {
	mu      sync.Mutex
	queued  map[string]time.Time
	started map[string]bool
	waits   []float64
}

func newProgressLog() *progressLog {
	return &progressLog{queued: map[string]time.Time{}, started: map[string]bool{}}
}

// update is a powerchop.WithProgress / Options.Progress callback.
func (p *progressLog) update(u powerchop.RunProgress) {
	now := time.Now()
	key := u.Benchmark + "/" + u.Kind
	p.mu.Lock()
	defer p.mu.Unlock()
	switch u.State {
	case powerchop.StateQueued:
		p.queued[key] = now
	case powerchop.StateSimulating:
		if !p.started[key] {
			p.started[key] = true
			if q, ok := p.queued[key]; ok {
				p.waits = append(p.waits, millis(now.Sub(q)))
			}
		}
	}
}
