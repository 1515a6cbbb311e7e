package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/gtsc-sim/gtsc/internal/experiments"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// execute runs an instance's kernels on s and verifies the final
// memory, exactly as workload.Instance.RunOn does, but through the
// public pieces (Simulator.Run, Instance.Verify) so the traced run can
// time verification on its own. A panic becomes an error.
func execute(inst *workload.Instance, s *sim.Simulator) (run *stats.Run, verify time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	for _, k := range inst.Kernels {
		r, err := s.Run(k)
		if err != nil {
			return nil, 0, err
		}
		if run == nil {
			run = r
		} else {
			run.Accumulate(r)
		}
	}
	if inst.Verify != nil {
		t := time.Now()
		err = inst.Verify(s.ReadWord)
		verify = time.Since(t)
		if err != nil {
			return run, verify, fmt.Errorf("workload verification failed: %w", err)
		}
	}
	return run, verify, nil
}

// build constructs a cell's instance and simulator, timing each step. A
// panicking builder (GE at scale >= 14, for one) becomes an error.
func build(c cell) (inst *workload.Instance, s *sim.Simulator, buildT, newT time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s build: panic: %v", c.wl.Name, p)
		}
	}()
	t0 := time.Now()
	inst = c.wl.Build(c.scale)
	t1 := time.Now()
	s = sim.New(c.config())
	return inst, s, t1.Sub(t0), time.Since(t1), nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap (/gc/heap/live:bytes, updated at the
// end of every GC) and keeps the highest value seen. It reuses one
// sample slot so polling allocates nothing the phase would count.
type heapSampler struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	sample []metrics.Sample
	peak   uint64
}

// heapPollEvery is the live-heap polling period. The value changes only
// when a GC ends, and GCs here are tens of milliseconds apart, so a
// coarser poll misses nothing and wakes the process less.
const heapPollEvery = 5 * time.Millisecond

func (h *heapSampler) live() uint64 {
	metrics.Read(h.sample)
	return h.sample[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.peak = h.live()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapPollEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, h.live())
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak, h.live())
}

// rtCounters are cumulative runtime counters read around a phase.
type rtCounters struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU                        float64
}

func readRuntime() rtCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Float64()}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// rep is one untraced timed phase.
type rep struct {
	wall, cpu time.Duration
	cycles    uint64 // simulated cycles summed over the phase's simulations
	peakHeap  uint64
	rt        rtCounters
}

// timed runs fn as one timed phase: a forced GC first, so every phase
// starts from the same heap, then wall, CPU, peak live heap and runtime
// counters around fn, which returns the simulated cycles it ran.
func timed(fn func() uint64) rep {
	runtime.GC()
	hs := startHeapSampler()
	rt0, c0, t0 := readRuntime(), cpuTime(), time.Now()
	cycles := fn()
	r := rep{wall: time.Since(t0), cpu: cpuTime() - c0, cycles: cycles}
	r.rt = readRuntime().sub(rt0)
	r.peakHeap = hs.Stop()
	return r
}

// singleRep is one untraced timed phase of a single-simulation
// workload: set-up (untimed), then kernels plus verification.
func singleRep(c cell, chk *checker) rep {
	inst, s, _, _, err := build(c)
	if err != nil {
		chk.check(nil, err)
		return rep{}
	}
	var run *stats.Run
	r := timed(func() uint64 {
		run, _, err = execute(inst, s)
		if run == nil {
			return 0
		}
		return run.Cycles
	})
	chk.check(run, err)
	return r
}

// gridRep is one untraced timed phase of the Fig-12 grid: RunFig12 on a
// fresh session, set-up included.
func gridRep(cells []cell, workers int, chk *checker) rep {
	var (
		fig     *experiments.Fig12
		runs    map[string]*stats.Run
		missing []string
		err     error
	)
	r := timed(func() uint64 {
		sess := experiments.NewSession(experiments.Config{Scale: cells[0].scale, Workers: workers, KeepGoing: true})
		fig, err = runFig12(sess)
		runs, missing = sess.CachedRuns(), sess.Missing()
		var cycles uint64
		for _, run := range runs {
			cycles += run.Cycles
		}
		return cycles
	})
	chk.grid(len(cells), runs, missing, fig, err)
	return r
}

func runFig12(sess *experiments.Session) (fig *experiments.Fig12, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("RunFig12 panic: %v", p)
		}
	}()
	return sess.RunFig12()
}

// setupTime is the set-up cost of the cells: Build plus sim.New, summed,
// timed outside any simulation. Each cell starts from a collected heap,
// so a collection the previous cell's garbage makes due does not land
// in whichever cell happens to trigger it. A cell whose set-up fails is
// left to fail in the timed phase, which counts it.
func setupTime(cells []cell) time.Duration {
	var total time.Duration
	for _, c := range cells {
		runtime.GC()
		_, _, b, n, _ := build(c)
		total += b + n
	}
	return total
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v
	}
	q := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(pos)
		frac := pos - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return q(1), q(3)
}
