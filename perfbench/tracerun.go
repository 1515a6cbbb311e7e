package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// tracedCell is the outcome of one span-wrapped simulation.
type tracedCell struct {
	c                         cell
	run                       *stats.Run
	err                       error
	sp                        spans
	eng                       sim.EngineStats
	build, newT, verify, exec time.Duration // exec: kernels plus verification
}

func runTracedCell(c cell) tracedCell {
	inst, s, b, n, err := build(c)
	tc := tracedCell{c: c, err: err, build: b, newT: n}
	if err != nil {
		return tc
	}
	instrument(s, &tc.sp)
	t := time.Now()
	tc.run, tc.verify, tc.err = execute(inst, s)
	tc.exec = time.Since(t)
	tc.eng = *s.Engine()
	return tc
}

// tracedRep is one traced phase: the span-wrapped simulations of every
// cell under a CPU profile.
type tracedRep struct {
	wall    time.Duration // comparable to the untraced phase's wall time
	region  time.Duration // the whole profiled region
	cpu     time.Duration // process CPU over the profiled region
	busy    time.Duration // summed worker time spent in cells
	workers int
	prof    map[string]int64 // profile samples per layer
	cells   []tracedCell
}

// traceRep drives the cells through the span wrappers with the same
// job order and worker count as experiments.Session's pool: workers
// take jobs in order from an unbuffered feed. For a single-simulation
// workload the comparable wall time is kernels plus verification, as in
// the untraced phase; for the grid it is the whole region.
func traceRep(cells []cell, workers int, grid bool) (tracedRep, error) {
	workers = max(1, min(workers, len(cells)))
	r := tracedRep{workers: workers, cells: make([]tracedCell, len(cells))}
	runtime.GC()
	var buf bytes.Buffer
	if err := startProfile(&buf); err != nil {
		return r, err
	}
	c0, t0 := cpuTime(), time.Now()
	busy := make([]time.Duration, workers)
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range feed {
				t := time.Now()
				r.cells[i] = runTracedCell(cells[i])
				busy[w] += time.Since(t)
			}
		}(w)
	}
	for i := range cells {
		feed <- i
	}
	close(feed)
	wg.Wait()
	r.region, r.cpu = time.Since(t0), cpuTime()-c0
	pprof.StopCPUProfile()
	for _, b := range busy {
		r.busy += b
	}
	r.wall = r.region
	if !grid {
		r.wall = r.cells[0].exec
	}
	prof, err := attribute(buf.Bytes())
	r.prof = prof
	return r, err
}

// check counts the rep's simulations in chk.
func (r *tracedRep) check(chk *checker) {
	for _, tc := range r.cells {
		chk.check(tc.run, tc.err)
	}
}

// counts are the rep's deterministic per-layer counts: simulated-machine
// statistics, engine scheduling counters and span call counts. Two runs
// of the same code must give the same values.
func (r *tracedRep) counts() map[string]float64 {
	m := map[string]float64{}
	var sp spans
	l1 := map[string]*stats.L1Stats{"core": {}, "tc": {}}
	var l2tc stats.L2Stats
	var comp struct{ ticks, sleeps uint64 }
	for _, tc := range r.cells {
		sp.add(&tc.sp)
		e := &tc.eng
		m["sim.executed_cycles"] += float64(e.RunCycles + e.DrainCycles)
		m["sim.skipped_cycles"] += float64(e.SkippedCycles())
		m["sim.dispatches"] += float64(e.Dispatches())
		m["sim.sm_ticks"] += float64(e.SMTicks)
		comp.ticks += e.Comp.HierarchyTicks()
		comp.sleeps += e.Comp.HierarchySleeps()
		run := tc.run
		if run == nil {
			continue
		}
		m["gpu.instr_issued"] += float64(run.SM.InstrIssued)
		m["gpu.mem_stall_cycles"] += float64(run.SM.MemStallCycles)
		m["noc.msgs"] += float64(run.NoC.MsgsToL2 + run.NoC.MsgsToL1)
		m["noc.flits"] += float64(run.NoC.TotalFlits())
		m["noc.queue_delay_cycles"] += float64(run.NoC.QueueDelay)
		m["dram.reads"] += float64(run.DRAM.Reads)
		m["dram.writes"] += float64(run.DRAM.Writes)
		if s, ok := l1[tc.c.layer()]; ok {
			s.Add(&run.L1)
		}
		if tc.c.layer() == "tc" {
			l2tc.Add(&run.L2)
		}
	}
	m["sim.hierarchy_sleep_frac"] = ratio(comp.sleeps, comp.ticks+comp.sleeps)
	m["gpu.l1_accesses"] = float64(sp.calls[l1Access])
	m["gpu.l1_reject_frac"] = ratio(sp.rejects, sp.calls[l1Access])
	m["gpu.complete_calls"] = float64(sp.calls[smComplete])
	for i := l1Access; i < smComplete; i++ {
		m["ctrl."+seamNames[i]+"_calls"] = float64(sp.calls[i])
	}
	g := l1["core"]
	m["core.l1.hit_rate"] = ratio(g.Hits, g.Loads)
	m["core.l1.renewals"] = float64(g.Renewals)
	m["core.l1.renewal_hit_rate"] = ratio(g.RenewalHits, g.Renewals)
	m["core.l1.mshr_stalls"] = float64(g.MSHRStalls)
	t := l1["tc"]
	m["tc.l1.hit_rate"] = ratio(t.Hits, t.Loads)
	m["tc.l1.expired_misses"] = float64(t.MissExpired)
	m["tc.l2.write_stall_cycles"] = float64(l2tc.WriteStalls)
	m["experiments.sims"] = float64(len(r.cells))
	return m
}

// times are the rep's host-time per-layer metrics in seconds: spans
// (inclusive, from the wrappers) and self times (from the profile).
func (r *tracedRep) times() map[string]float64 {
	m := map[string]float64{}
	var sp spans
	for _, tc := range r.cells {
		m["workload.build_s"] += tc.build.Seconds()
		m["workload.verify_s"] += tc.verify.Seconds()
		m["sim.new_s"] += tc.newT.Seconds()
		sp.add(&tc.sp)
	}
	for i := l1Access; i < smComplete; i++ {
		m["ctrl."+seamNames[i]+"_s"] = sp.ns[i].Seconds()
	}
	m["gpu.complete_s"] = sp.ns[smComplete].Seconds()
	// Self time is the layer's share of the profile samples times the
	// CPU time the process spent in the traced region. The protocol
	// packages are reported together as ctrl, with each one's share.
	var samples int64
	for _, n := range r.prof {
		samples += n
	}
	share := func(n int64) float64 { return float64(n) / float64(max(samples, 1)) }
	var ctrl int64
	for _, l := range ctrlLayers {
		ctrl += r.prof[l]
	}
	for _, l := range ctrlLayers {
		m["ctrl."+l+"_share"] = float64(r.prof[l]) / float64(max(ctrl, 1))
	}
	m["ctrl.self_s"] = r.cpu.Seconds() * share(ctrl)
	for _, l := range layers {
		if !slices.Contains(ctrlLayers, l) && l != "other" && l != "unattributed" {
			m[selfMetric(l)] = r.cpu.Seconds() * share(r.prof[l])
		}
	}
	// Reconciliation: the layers' self times sum to the traced CPU time
	// by construction; what no layer claims is the unattributed share.
	// The program's glue packages are a share too: they are tiny, so
	// their sampled time is often exactly zero.
	m["other.cpu_frac"] = share(r.prof["other"])
	m["trace.unattributed_frac"] = share(r.prof["unattributed"])
	m["trace.cpu_s"] = r.cpu.Seconds()
	m["trace.profile_hz"] = float64(samples) / r.cpu.Seconds()
	m["experiments.idle_frac"] = 1 - r.busy.Seconds()/(float64(r.workers)*r.region.Seconds())
	return m
}

// selfMetric names a profile layer's self-time metric. The workload
// package is split by caller (see layers).
func selfMetric(layer string) string {
	switch layer {
	case "workload":
		return "workload.exec_self_s"
	case "workload-ref":
		return "workload.ref_self_s"
	}
	return layer + ".self_s"
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer reduces the traced phase to the per-layer metrics: host
// times are means over the traced reps, counts come from the last rep
// and are compared across reps, runtime allocation figures are medians
// over the untraced reps interleaved with them (the wrappers allocate).
func perLayer(traced []tracedRep, untraced []rep) (map[string]float64, []string) {
	m := map[string]float64{}
	for _, r := range traced {
		for k, v := range r.times() {
			m[k] += v / float64(len(traced))
		}
	}
	differs := map[string]bool{}
	first := traced[0].counts()
	for _, r := range traced[1:] {
		for k, v := range r.counts() {
			if v != first[k] {
				differs[k] = true
			}
		}
	}
	mismatched := sortedKeys(differs)
	for k, v := range traced[len(traced)-1].counts() {
		m[k] = v
	}
	m["trace.count_mismatches"] = float64(len(mismatched))

	tw := make([]float64, len(traced))
	for i, r := range traced {
		tw[i] = r.wall.Seconds()
	}
	over := func(f func(rep) float64) []float64 {
		xs := make([]float64, len(untraced))
		for i, u := range untraced {
			xs[i] = f(u)
		}
		return xs
	}
	m["trace.overhead_frac"] = median(tw)/median(over(func(u rep) float64 { return u.wall.Seconds() })) - 1
	m["runtime.allocs_per_kcycle"] = median(over(func(u rep) float64 { return 1000 * float64(u.rt.allocs) / float64(max(u.cycles, 1)) }))
	m["runtime.alloc_mb"] = median(over(func(u rep) float64 { return float64(u.rt.allocBytes) / 1e6 }))
	m["runtime.gc_cycles"] = median(over(func(u rep) float64 { return float64(u.rt.gcCycles) }))
	m["runtime.gc_cpu_s"] = median(over(func(u rep) float64 { return u.rt.gcCPU }))
	allocs := over(func(u rep) float64 { return float64(u.rt.allocs) })
	m["runtime.allocs_jitter_frac"] = (slices.Max(allocs) - slices.Min(allocs)) / median(allocs)
	return m, mismatched
}
