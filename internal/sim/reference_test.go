package sim

import (
	"errors"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// The reference schedules: plain cycle loops over the same machine the
// event engine drives, kept in test code as the yardstick for its
// bit-identity claims (DESIGN.md §7). They share the engine's
// per-iteration order of checks — pause point, MaxCycles budget, one
// cycle, protocol error, completion, watchdog sample — so a reference
// run pauses, samples and finishes at exactly the engine's cycles, and
// the two schedules can hand a paused machine to each other.
//
//   - refEveryCycle ticks the whole hierarchy (Sys.Tick) and every SM
//     on every cycle: no skipped cycle, no sleeping SM, no
//     per-component dispatch. Wake claims are never consulted.
//   - refNextEvent also jumps whole-machine quiet stretches, taking the
//     horizon from Sys.NextEvent and every SM's Quiesce probe instead
//     of from the agenda; the jump bulk-applies the SMs' stall cycles
//     (SkipCycles) and advances component clocks (SyncClocks).
//     Executed cycles still tick everything.
type refMode int

const (
	refEveryCycle refMode = iota
	refNextEvent
)

// refAdvance drives the current kernel like advance, on a reference
// schedule. after, when non-nil, runs after every executed or skipped
// cycle and once right after the run phase ends, with the machine
// between cycles.
func (s *Simulator) refAdvance(stopAt uint64, mode refMode, after func()) (*stats.Run, bool, error) {
	st := s.cur
	var probes []gpu.StallProbe
	for st.phase == phaseRun {
		if stopAt != 0 && s.now >= stopAt {
			return nil, true, nil
		}
		if s.budgetExhausted(s.now - st.start) {
			return nil, false, s.deadlock(st.kernel.Name, "run", "max-cycles", s.now-st.lastProgress)
		}
		if mode == refEveryCycle || !s.refSkip(st.start+s.Cfg.MaxCycles, stopAt, &probes) {
			s.now++
			s.Sys.Tick(s.now)
			for _, sm := range s.SMs {
				sm.Tick(s.now)
			}
			s.Sys.TickRollover(s.now)
		}
		if err := s.Sys.Err(); err != nil {
			return nil, false, s.attachDump(err)
		}
		if s.done() {
			if err := s.endRunPhase(); err != nil {
				return nil, false, err
			}
		} else if err := s.refWatchdog("run"); err != nil {
			return nil, false, err
		}
		if after != nil {
			after()
		}
	}
	for ; !s.Sys.Drained(); st.guard++ {
		if stopAt != 0 && s.now >= stopAt {
			return nil, true, nil
		}
		if s.budgetExhausted(st.guard) {
			return nil, false, s.deadlock(st.kernel.Name, "drain", "max-cycles", s.now-st.lastProgress)
		}
		if mode == refEveryCycle || !s.refSkip(s.now+(s.Cfg.MaxCycles-st.guard), stopAt, nil) {
			s.now++
			s.Sys.Tick(s.now)
		}
		if err := s.Sys.Err(); err != nil {
			return nil, false, s.attachDump(err)
		}
		if err := s.refWatchdog("drain"); err != nil {
			return nil, false, err
		}
		if after != nil {
			after()
		}
	}
	run := st.run
	s.cur = nil
	s.kernelsDone++
	return run, false, nil
}

// refSkip is refNextEvent's fast-forward. probes is non-nil in the run
// phase, where every SM must also probe as a pure stall; it doubles as
// scratch space for the probes.
func (s *Simulator) refSkip(budgetCap, stopAt uint64, probes *[]gpu.StallProbe) bool {
	horizon := s.Sys.NextEvent(s.now)
	if horizon <= s.now+1 {
		return false
	}
	if probes != nil {
		*probes = (*probes)[:0]
		for _, sm := range s.SMs {
			p, ok := sm.Quiesce()
			if !ok {
				return false
			}
			*probes = append(*probes, p)
			horizon = min(horizon, p.Wake)
		}
	}
	j := min(horizon-1, (s.now|63)+1, budgetCap)
	if stopAt != 0 {
		j = min(j, stopAt)
	}
	if j <= s.now {
		return false
	}
	k := j - s.now
	s.now = j
	s.Sys.SyncClocks(j)
	if probes != nil {
		for i, sm := range s.SMs {
			sm.SkipCycles(j, k, (*probes)[i])
		}
	} else {
		s.cur.guard += k - 1 // the drain loop's post-statement adds the last one
	}
	return true
}

// refWatchdog is the engine's forward-progress sample, taken on the
// same cycles (multiples of 64) so the watchdog state a checkpoint
// digests matches the engine's.
func (s *Simulator) refWatchdog(phase string) error {
	st := s.cur
	if s.Cfg.DisableWatchdog || s.now&63 != 0 {
		return nil
	}
	if sig := s.progressSig(); sig != st.lastSig {
		st.lastSig = sig
		st.lastProgress = s.now
	} else if s.now-st.lastProgress >= s.Cfg.WatchdogWindow {
		return s.deadlock(st.kernel.Name, phase, "no-forward-progress", s.now-st.lastProgress)
	}
	return nil
}

// RunReferenceUntil is RunUntil on a reference schedule: refNextEvent
// when skip is set, refEveryCycle otherwise.
func (s *Simulator) RunReferenceUntil(kernel *gpu.Kernel, stopAt uint64, skip bool) (*stats.Run, bool, error) {
	if s.cfgErr != nil {
		return nil, false, s.cfgErr
	}
	if s.cur != nil {
		return nil, false, errors.New("sim: a kernel is already in flight; use ResumeReference")
	}
	s.beginKernel(kernel)
	return s.refAdvance(stopAt, refModeOf(skip), nil)
}

// ResumeReference is Resume on a reference schedule. The paused kernel
// may have been started by either schedule.
func (s *Simulator) ResumeReference(stopAt uint64, skip bool) (*stats.Run, bool, error) {
	if s.cur == nil {
		return nil, false, errors.New("sim: no paused kernel to resume")
	}
	return s.refAdvance(stopAt, refModeOf(skip), nil)
}

func refModeOf(skip bool) refMode {
	if skip {
		return refNextEvent
	}
	return refEveryCycle
}
