package main

import (
	"time"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sim"
)

// seam is a call boundary the traced run times.
type seam int

const (
	l1Access seam = iota
	l1Deliver
	l1Tick
	l2Deliver
	l2Tick
	l2DRAMFill
	smComplete // Request.Done: SM completion work, a child of the L1 seams
	numSeams
)

// seamNames are the metric stems of the seams; the controller seams are
// reported under "ctrl.", the completion span as gpu.complete.
var seamNames = [numSeams]string{
	"l1.access", "l1.deliver", "l1.tick", "l2.deliver", "l2.tick", "l2.dram_fill", "complete",
}

// spans accumulates inclusive host time and calls per seam for one
// simulation. Each simulation owns one, so concurrent cells share
// nothing.
type spans struct {
	ns      [numSeams]time.Duration
	calls   [numSeams]uint64
	rejects uint64 // L1 accesses refused (coherence.Reject)
}

func (sp *spans) end(s seam, start time.Time) {
	sp.ns[s] += time.Since(start)
	sp.calls[s]++
}

func (sp *spans) add(o *spans) {
	for i := range sp.ns {
		sp.ns[i] += o.ns[i]
		sp.calls[i] += o.calls[i]
	}
	sp.rejects += o.rejects
}

// tracedL1 times an L1 controller's Access, Deliver and Tick, and wraps
// each request's Done so completion work shows as its own span.
type tracedL1 struct {
	coherence.L1
	sp   *spans
	done map[*coherence.Request]*tracedDone
}

// tracedDone is the Done wrapper of one request record. The SM reuses a
// record (and its *Request) only after Done has run, so one wrapper per
// *Request serves every access made through it without allocating.
type tracedDone struct {
	sp   *spans
	orig func(coherence.Completion)
	fn   func(coherence.Completion)
}

func (d *tracedDone) call(c coherence.Completion) {
	t := time.Now()
	d.orig(c)
	d.sp.end(smComplete, t)
}

func (w *tracedL1) Access(req *coherence.Request) coherence.AccessResult {
	d := w.done[req]
	if d == nil {
		d = &tracedDone{sp: w.sp}
		d.fn = d.call
		w.done[req] = d
	}
	d.orig = req.Done
	req.Done = d.fn
	t := time.Now()
	r := w.L1.Access(req)
	w.sp.end(l1Access, t)
	if r == coherence.Reject {
		w.sp.rejects++
	}
	return r
}

func (w *tracedL1) Deliver(msg *mem.Msg) {
	t := time.Now()
	w.L1.Deliver(msg)
	w.sp.end(l1Deliver, t)
}

func (w *tracedL1) Tick(now uint64) {
	t := time.Now()
	w.L1.Tick(now)
	w.sp.end(l1Tick, t)
}

// tracedL2 times an L2 bank's Deliver, Tick and DRAMFill.
type tracedL2 struct {
	coherence.L2
	sp *spans
}

func (w *tracedL2) Deliver(msg *mem.Msg) {
	t := time.Now()
	w.L2.Deliver(msg)
	w.sp.end(l2Deliver, t)
}

func (w *tracedL2) Tick(now uint64) {
	t := time.Now()
	w.L2.Tick(now)
	w.sp.end(l2Tick, t)
}

func (w *tracedL2) DRAMFill(msg *mem.Msg) {
	t := time.Now()
	w.L2.DRAMFill(msg)
	w.sp.end(l2DRAMFill, t)
}

// instrument puts span wrappers around every controller of a freshly
// built simulator. The memory system reaches its controllers through
// Sys.L1s and Sys.L2s on every delivery and tick, so replacing the
// slice entries reroutes those calls; the SMs hold their L1 directly,
// so they are rebuilt over the wrapped L1 exactly as sim.New builds
// them. It must run before the first Run.
func instrument(s *sim.Simulator, sp *spans) {
	for i, l1 := range s.Sys.L1s {
		s.Sys.L1s[i] = &tracedL1{L1: l1, sp: sp, done: map[*coherence.Request]*tracedDone{}}
	}
	for i, l2 := range s.Sys.L2s {
		s.Sys.L2s[i] = &tracedL2{L2: l2, sp: sp}
	}
	for i := range s.SMs {
		smCfg := s.Cfg.SM
		smCfg.MaxWarps = s.Cfg.Mem.MaxWarps
		s.SMs[i] = gpu.NewSM(i, smCfg, s.Sys.L1s[i])
	}
}
