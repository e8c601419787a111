package main

import (
	"fmt"
	"path/filepath"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/bpu"
	"powerchop/internal/bt"
	"powerchop/internal/cache"
	"powerchop/internal/cde"
	"powerchop/internal/core"
	"powerchop/internal/isa"
	"powerchop/internal/phase"
	"powerchop/internal/policy"
	"powerchop/internal/power"
	"powerchop/internal/program"
	"powerchop/internal/pvt"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// The layer replay calls each simulation layer in turn on a recorded
// batch of its inputs, with one clock read per batch (a single call
// takes only tens of nanoseconds). The inputs come from one walk of the
// benchmark's program, so the replayed counts must equal a full-power
// sim.Run of the same benchmark and length exactly; any difference fails
// the run.

// memRef and brRef are the walk's recorded memory operations and
// branches, with the (region, selector) they came from.
type memRef struct {
	addr  uint64
	write bool
	ri    int32
	sel   uint8
}

type brRef struct {
	pc    uint32
	taken bool
	ri    int32
	sel   uint8
}

// walk is one benchmark's recorded execution.
type walk struct {
	regions []int32 // region per execution
	mems    []memRef
	brs     []brRef
	memAt   []int32 // first mems index of each execution (plus a sentinel)
	brAt    []int32 // first brs index of each execution (plus a sentinel)
	insns   uint64
}

// layerClock accumulates one layer's batch time and call count.
type layerClock struct {
	d time.Duration
	n uint64
}

func (c *layerClock) add(t0 time.Time, n int) {
	c.d += time.Since(t0)
	c.n += uint64(n)
}

func (c *layerClock) per(unit time.Duration) float64 {
	return ratio(float64(c.d)/float64(unit), float64(c.n))
}

// replay holds the clocks and counts summed over a workload's benchmarks.
type replay struct {
	build, next, addr, branch, exec                    layerClock
	l1, mlc, mlcGated, clone                           layerClock
	small, large                                       layerClock
	record, endWindow, lookup, handleMiss              layerClock
	powerAdd, powerReport, simSolo, simBatch, put, get layerClock

	l1Hits, l1Acc, mlcHits, mlcAcc, mlcWB     uint64
	smallRight, largeRight, branches          uint64
	windows, lookups, pvtHits, cdeInvocations uint64
}

// replayLayers replays every layer for each benchmark at the workload's
// run length, cross-checks the counts, and sets the layer metrics.
func replayLayers(r *run, benches []string, runLen func(schedule int) uint64) error {
	var rp replay
	t0 := time.Now()
	for i, name := range benches {
		b, err := workload.ByName(name)
		if err != nil {
			return err
		}
		r.op("layer replay "+name, rp.benchmark(r, b, runLen, i == 0))
	}
	r.note("replay_benchmarks", len(benches))
	r.note("replay_s", time.Since(t0).Seconds())

	r.set("program.build_us", rp.build.per(time.Microsecond), "us")
	r.set("walker.ns_per_translation", rp.next.per(time.Nanosecond), "ns")
	r.set("walker.ns_per_address", rp.addr.per(time.Nanosecond), "ns")
	r.set("walker.ns_per_branch", rp.branch.per(time.Nanosecond), "ns")
	r.set("bt.ns_per_execute", rp.exec.per(time.Nanosecond), "ns")
	r.set("cache.l1.ns_per_access", rp.l1.per(time.Nanosecond), "ns")
	r.set("cache.mlc.ns_per_access", rp.mlc.per(time.Nanosecond), "ns")
	r.set("cache.mlc_gated.ns_per_access", rp.mlcGated.per(time.Nanosecond), "ns")
	r.set("cache.clone_us", rp.clone.per(time.Microsecond), "us")
	r.set("cache.l1.hit_ratio", ratio(float64(rp.l1Hits), float64(rp.l1Acc)), "ratio")
	r.set("cache.mlc.hit_ratio", ratio(float64(rp.mlcHits), float64(rp.mlcAcc)), "ratio")
	r.set("cache.mlc.writebacks", float64(rp.mlcWB), "count")
	r.set("bpu.small.ns_per_access", rp.small.per(time.Nanosecond), "ns")
	r.set("bpu.large.ns_per_access", rp.large.per(time.Nanosecond), "ns")
	r.set("bpu.small.correct_ratio", ratio(float64(rp.smallRight), float64(rp.branches)), "ratio")
	r.set("bpu.large.correct_ratio", ratio(float64(rp.largeRight), float64(rp.branches)), "ratio")
	r.set("phase.htb.ns_per_record", rp.record.per(time.Nanosecond), "ns")
	r.set("phase.htb.us_per_endwindow", rp.endWindow.per(time.Microsecond), "us")
	r.set("phase.windows", float64(rp.windows), "count")
	r.set("pvt.ns_per_lookup", rp.lookup.per(time.Nanosecond), "ns")
	r.set("pvt.hit_ratio", ratio(float64(rp.pvtHits), float64(rp.lookups)), "ratio")
	r.set("cde.us_per_handlemiss", rp.handleMiss.per(time.Microsecond), "us")
	r.set("cde.invocations", float64(rp.cdeInvocations), "count")
	r.set("power.ns_per_add", rp.powerAdd.per(time.Nanosecond), "ns")
	r.set("power.us_per_report", rp.powerReport.per(time.Microsecond), "us")
	r.set("sim.ns_per_insn", rp.simSolo.per(time.Nanosecond), "ns")
	r.set("sim.batch.ns_per_lane_insn", rp.simBatch.per(time.Nanosecond), "ns")
	r.set("rescache.put_us", rp.put.per(time.Microsecond), "us")
	r.set("rescache.get_us", rp.get.per(time.Microsecond), "us")
	return nil
}

// designOf is the benchmark's design point, as Run and the figures pick
// it: MobileBench on the mobile core, everything else on the server.
func designOf(b workload.Benchmark) arch.Design {
	if b.Mobile {
		return arch.Mobile()
	}
	return arch.Server()
}

// benchmark replays one benchmark; batch adds a timed sim.RunBatch.
func (rp *replay) benchmark(r *run, b workload.Benchmark, runLen func(int) uint64, batch bool) error {
	const builds = 3
	var p *program.Program
	t0 := time.Now()
	for i := 0; i < builds; i++ {
		var err error
		if p, err = b.Build(); err != nil {
			return err
		}
	}
	rp.build.add(t0, builds)
	d := designOf(b)
	n := runLen(p.TotalScheduleTranslations())

	// The reference: a full-power solo simulation.
	t0 = time.Now()
	res, err := sim.Run(p, sim.Config{Design: d, Manager: core.AlwaysOn(), MaxTranslations: n})
	if err != nil {
		return err
	}
	rp.simSolo.add(t0, int(res.GuestInsns))

	w, err := record(p, n)
	if err != nil {
		return err
	}
	if err := rp.walker(p, w); err != nil {
		return err
	}
	trs, err := rp.bt(p, d, w)
	if err != nil {
		return err
	}
	mlcHit, got := rp.caches(d, w)
	mispred := rp.predictors(d, w, &got)
	got.GuestInsns = w.insns
	got.Windows = rp.windowLayers(p, d, w, trs, mlcHit, mispred)
	if err := crossCheck(res, &got); err != nil {
		return fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := rp.resultCache(r, p, d, n, res); err != nil {
		return err
	}
	if batch {
		return rp.batch(p, d, n, res.GuestInsns)
	}
	return nil
}

// record walks the program exactly as a solo run does (region draw, then
// each instruction's branch outcome or address, in body order) and keeps
// every input the later layers need.
func record(p *program.Program, n uint64) (*walk, error) {
	wk, err := program.NewWalker(p)
	if err != nil {
		return nil, err
	}
	w := &walk{regions: make([]int32, 0, n), memAt: make([]int32, 0, n+1), brAt: make([]int32, 0, n+1)}
	for wk.Executed() < n {
		ri := wk.Next()
		w.regions = append(w.regions, int32(ri))
		w.memAt = append(w.memAt, int32(len(w.mems)))
		w.brAt = append(w.brAt, int32(len(w.brs)))
		body := p.Regions[ri].Body
		w.insns += uint64(len(body))
		for _, in := range body {
			switch in.Kind {
			case isa.Branch:
				w.brs = append(w.brs, brRef{pc: in.PC, taken: wk.BranchOutcome(ri, in.Sel), ri: int32(ri), sel: in.Sel})
			case isa.Load, isa.Store:
				w.mems = append(w.mems, memRef{addr: wk.Address(ri, in.Sel), write: in.Kind == isa.Store, ri: int32(ri), sel: in.Sel})
			}
		}
	}
	w.memAt = append(w.memAt, int32(len(w.mems)))
	w.brAt = append(w.brAt, int32(len(w.brs)))
	return w, nil
}

// walker times Walker.Next, Walker.Address and Walker.BranchOutcome each
// on a fresh walker over the recorded (region, selector) inputs.
func (rp *replay) walker(p *program.Program, w *walk) error {
	var fresh [3]*program.Walker
	for i := range fresh {
		var err error
		if fresh[i], err = program.NewWalker(p); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for range w.regions {
		fresh[0].Next()
	}
	rp.next.add(t0, len(w.regions))
	t0 = time.Now()
	for _, m := range w.mems {
		fresh[1].Address(int(m.ri), m.sel)
	}
	rp.addr.add(t0, len(w.mems))
	t0 = time.Now()
	for _, b := range w.brs {
		fresh[2].BranchOutcome(int(b.ri), b.sel)
	}
	rp.branch.add(t0, len(w.brs))
	return nil
}

// bt times bt.System.Execute over the execution sequence and returns the
// translation each execution ran from (nil while interpreted).
func (rp *replay) bt(p *program.Program, d arch.Design, w *walk) ([]*bt.Translation, error) {
	sys, err := bt.New(bt.Config{
		HotThreshold:           d.HotThreshold,
		InterpCPI:              d.InterpCPI,
		TranslateCyclesPerInsn: d.TranslateCyclesPerInsn,
	}, p)
	if err != nil {
		return nil, err
	}
	trs := make([]*bt.Translation, len(w.regions))
	t0 := time.Now()
	for i, ri := range w.regions {
		trs[i], _ = sys.Execute(int(ri))
	}
	rp.exec.add(t0, len(w.regions))
	return trs, nil
}

// caches times the L1 alone, then the MLC behind the recorded L1 outcome
// stream with all ways and gated to one way, then clones of the warm
// MLC. The full Hierarchy.Access pass gives the counts the cross-check
// compares. It returns the per-operation MLC hit flags.
func (rp *replay) caches(d arch.Design, w *walk) ([]bool, sim.Result) {
	var got sim.Result
	h := cache.NewHierarchy(d.Mem)
	mlcHit := make([]bool, len(w.mems))
	for i, m := range w.mems {
		res := h.Access(m.addr, m.write)
		if res.MLCAccessed {
			got.MLCAccesses++
		}
		if res.MLCHit {
			got.MLCHits++
			mlcHit[i] = true
		}
	}
	got.MemOps = uint64(len(w.mems))
	rp.mlcWB += h.MLC().Stats().Writebacks

	l1 := cache.New(d.Mem.L1)
	hits := make([]bool, len(w.mems))
	wbs := make([]bool, len(w.mems))
	victims := make([]uint64, len(w.mems))
	t0 := time.Now()
	for i, m := range w.mems {
		hits[i], wbs[i], victims[i] = l1.Access(m.addr, m.write)
	}
	rp.l1.add(t0, len(w.mems))
	st := l1.Stats()
	rp.l1Hits += st.Hits
	rp.l1Acc += st.Accesses

	for _, ways := range []int{d.Mem.MLC.Ways, 1} {
		hm := cache.NewHierarchy(d.Mem)
		hm.GateMLC(ways)
		t0 := time.Now()
		for i, m := range w.mems {
			hm.ReplayAccess(m.addr, hits[i], wbs[i], victims[i])
		}
		n := int(hm.MLC().Stats().Accesses)
		if ways == d.Mem.MLC.Ways {
			rp.mlc.add(t0, n)
			rp.mlcHits += hm.MLC().Stats().Hits
			rp.mlcAcc += uint64(n)
			const clones = 10
			t0 = time.Now()
			for i := 0; i < clones; i++ {
				hm.MLC().Clone()
			}
			rp.clone.add(t0, clones)
		} else {
			rp.mlcGated.add(t0, n)
		}
	}
	return mlcHit, got
}

// predictors times bpu.Unit.Access with the large predictor on (the
// counted, full-power configuration) and off, and returns the large
// configuration's per-branch mispredict flags.
func (rp *replay) predictors(d arch.Design, w *walk, got *sim.Result) []bool {
	mis := make([]bool, len(w.brs))
	u := bpu.NewUnit(d.BPU)
	t0 := time.Now()
	for i, b := range w.brs {
		mis[i] = !u.Access(b.pc, b.taken)
	}
	rp.large.add(t0, len(w.brs))
	small := bpu.NewUnit(d.BPU)
	small.SetLargeOn(false)
	right := 0
	t0 = time.Now()
	for _, b := range w.brs {
		if small.Access(b.pc, b.taken) {
			right++
		}
	}
	rp.small.add(t0, len(w.brs))
	got.Branches = uint64(len(w.brs))
	for _, m := range mis {
		if m {
			got.Mispredicts++
		}
	}
	rp.branches += got.Branches
	rp.largeRight += got.Branches - got.Mispredicts
	rp.smallRight += uint64(right)
	return mis
}

// windowLayers replays the window boundary: HTB Record and EndWindow
// over the translation stream, then PVT lookups and CDE miss handling
// over the resulting signatures with per-window profiles built from the
// recorded counts (and the measurement flags of the policy the CDE last
// asked for), then the power accountant. It returns the window count.
func (rp *replay) windowLayers(p *program.Program, d arch.Design, w *walk, trs []*bt.Translation, mlcHit, mispred []bool) uint64 {
	htb := phase.NewHTB(phase.DefaultConfig())
	var sigs []phase.Signature
	var ends []int // last execution of each window
	var endD time.Duration
	t0 := time.Now()
	for i, tr := range trs {
		if tr != nil && htb.Record(tr.ID, uint64(tr.Insns)) {
			e0 := time.Now()
			sig, _ := htb.EndWindow()
			endD += time.Since(e0)
			sigs = append(sigs, sig)
			ends = append(ends, i)
		}
	}
	rp.record.d += time.Since(t0) - endD
	rp.record.n += uint64(len(trs))
	rp.endWindow.d += endD
	rp.endWindow.n += uint64(len(sigs))
	rp.windows += uint64(len(sigs))

	// Per-window profiles from the recorded walk.
	vec := make([]uint64, len(p.Regions))
	for i, rg := range p.Regions {
		for _, in := range rg.Body {
			if in.Kind == isa.Vector {
				vec[i]++
			}
		}
	}
	profs := make([]cde.WindowProfile, len(sigs))
	from := 0
	for k, last := range ends {
		pr := &profs[k]
		for e := from; e <= last; e++ {
			ri := w.regions[e]
			pr.TotalInsns += uint64(len(p.Regions[ri].Body))
			pr.SIMDInsns += vec[ri]
		}
		for j := w.brAt[from]; j < w.brAt[last+1]; j++ {
			pr.Branches++
			if mispred[j] {
				pr.Mispredicts++
			}
		}
		for j := w.memAt[from]; j < w.memAt[last+1]; j++ {
			if mlcHit[j] {
				pr.L2Hits++
			}
		}
		from = last + 1
	}

	// PVT and CDE as the PowerChop manager drives them.
	table := pvt.New(pvt.DefaultEntries)
	eng, _ := cde.New(table, cde.DefaultThresholds(), cde.ManageAll())
	current, streak := pvt.FullOn, 0
	var missSigs []phase.Signature
	var missProfs []cde.WindowProfile
	for k, sig := range sigs {
		pr := profs[k]
		pr.VPUOn, pr.LargeBPUActive = current.VPUOn, current.BPUOn
		pr.MLCFullyOn = current.MLC == pvt.MLCAll
		full := pr.LargeBPUActive && pr.MLCFullyOn
		pr.Warm = full && streak >= 2
		if full {
			streak++
		} else {
			streak = 0
		}
		pr.Current = current
		if sig.Zero() {
			continue
		}
		rp.lookups++
		if pol, hit := table.Lookup(sig); hit {
			rp.pvtHits++
			current = pol
			continue
		}
		missSigs = append(missSigs, sig)
		missProfs = append(missProfs, pr)
		current = eng.HandleMiss(sig, pr).Policy
	}
	rp.cdeInvocations += eng.Stats().Invocations
	t0 = time.Now()
	for _, sig := range sigs {
		table.Lookup(sig)
	}
	rp.lookup.add(t0, len(sigs))
	eng2, _ := cde.New(pvt.New(pvt.DefaultEntries), cde.DefaultThresholds(), cde.ManageAll())
	t0 = time.Now()
	for i, sig := range missSigs {
		eng2.HandleMiss(sig, missProfs[i])
	}
	rp.handleMiss.add(t0, len(missSigs))

	// Power accounting: per window, a residency and an access tally per
	// unit; then one report per window.
	acct := power.NewAccountant(d.ClockHz)
	units := append(d.UnitSpecs(), power.UnitSpec{Name: arch.UnitHTB, LeakageW: power.HTBPowerW})
	for _, u := range units {
		acct.AddUnit(u)
	}
	t0 = time.Now()
	for _, pr := range profs {
		for _, u := range units {
			acct.AddResidency(u.Name, 1, float64(pr.TotalInsns))
			acct.AddAccesses(u.Name, pr.Branches, 1)
		}
	}
	rp.powerAdd.add(t0, 2*len(units)*len(profs))
	t0 = time.Now()
	for _, pr := range profs {
		acct.Report(float64(pr.TotalInsns))
	}
	rp.powerReport.add(t0, len(profs))
	return uint64(len(sigs))
}

// crossCheck requires the replayed counts to equal the simulation's.
func crossCheck(want *sim.Result, got *sim.Result) error {
	type pair struct {
		name      string
		want, got uint64
	}
	for _, c := range []pair{
		{"MemOps", want.MemOps, got.MemOps},
		{"MLCAccesses", want.MLCAccesses, got.MLCAccesses},
		{"MLCHits", want.MLCHits, got.MLCHits},
		{"Branches", want.Branches, got.Branches},
		{"Mispredicts", want.Mispredicts, got.Mispredicts},
		{"GuestInsns", want.GuestInsns, got.GuestInsns},
		{"Windows", want.Windows, got.Windows},
	} {
		if c.want != c.got {
			return fmt.Errorf("replayed %s = %d, sim.Run = %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// resultCache times rescache Put and Get of the reference result in a
// scratch cache and checks the round trip.
func (rp *replay) resultCache(r *run, p *program.Program, d arch.Design, n uint64, res *sim.Result) error {
	const reps = 3
	c := rescache.New(filepath.Join(r.dir, "replaycache"), nil)
	key := rescache.Key{
		Program: p.Digest(),
		Design:  rescache.Fingerprint(d),
		Manager: "full-power",
		Config:  fmt.Sprintf("translations=%d", n),
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := c.Put(key, res); err != nil {
			return err
		}
	}
	rp.put.add(t0, reps)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		back, ok := c.Get(key)
		if !ok || back.GuestInsns != res.GuestInsns || back.Cycles != res.Cycles {
			return fmt.Errorf("rescache round trip of %s lost the result", p.Name)
		}
	}
	rp.get.add(t0, reps)
	return nil
}

// batch times one sim.RunBatch of eight powerchop lanes whose parameters
// step through the policy's schema, the shape of a tune group.
func (rp *replay) batch(p *program.Program, d arch.Design, n, insns uint64) error {
	spec, ok := policy.Lookup("powerchop")
	if !ok {
		return fmt.Errorf("powerchop policy not registered")
	}
	const lanes = 8
	cfgs := make([]sim.Config, lanes)
	for i := range cfgs {
		params := spec.Defaults()
		if len(spec.Params) > 0 {
			pm := spec.Params[i%len(spec.Params)]
			v := pm.Default * []float64{0.5, 2}[i/len(spec.Params)%2]
			params[pm.Name] = max(pm.Min, min(pm.Max, v))
		}
		m, err := spec.Manager(params)
		if err != nil {
			return err
		}
		cfgs[i] = sim.Config{Design: d, Manager: m, MaxTranslations: n}
	}
	t0 := time.Now()
	if _, err := sim.RunBatch(p, cfgs); err != nil {
		return err
	}
	rp.simBatch.add(t0, int(lanes*insns))
	return nil
}
