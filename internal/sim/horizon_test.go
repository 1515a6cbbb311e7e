package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"regexp"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
)

// TestHorizonClaimsSound is the property test behind every fast-forward
// the engine performs: a wake claim must never be early. Stepping a
// simulation through the tick-everything reference loop
// (stepEveryCycle), it records each cycle's claims — the hierarchy's
// NextEvent horizon and, when every SM probes quiescent, the
// machine-wide wake —
// and then asserts that nothing observable happened strictly before the
// claimed cycle: the progress signature (instructions, warp
// retirements, NoC and DRAM traffic) is frozen and the hierarchy's
// canonical state digest is bit-identical across the window. The
// engine builds its skip windows and agenda wakes from exactly these
// claims, so an overclaiming component would surface here as a state
// change inside a window it promised was inert.
func TestHorizonClaimsSound(t *testing.T) {
	cases := []struct {
		name   string
		proto  memsys.Protocol
		kernel *gpu.Kernel
	}{
		{"gtsc-conflict", memsys.GTSC, conflictKernel(0x60000, 4, 8)},
		{"gtsc-writeread", memsys.GTSC, writeReadKernel(0x50000)},
		{"dir-conflict", memsys.DIR, conflictKernel(0x61000, 4, 8)},
		{"tc-writeread", memsys.TC, writeReadKernel(0x52000)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := New(smallConfig(tc.proto, gpu.RC))

			// The state digest includes each controller's local clock,
			// which advances on every Tick — including the provably
			// inert ticks inside a quiet window (a real skip re-syncs
			// those clocks with SyncClocks). Clocks are schedule, not
			// state; strip them before comparing.
			clocks := regexp.MustCompile(` now=\d+`)
			digest := func() uint64 {
				var buf bytes.Buffer
				s.Sys.DigestState(&buf)
				h := fnv.New64a()
				h.Write(clocks.ReplaceAll(buf.Bytes(), nil))
				return h.Sum64()
			}
			type claim struct {
				at    uint64 // cycle the claim was made
				until uint64 // earliest cycle anything may happen
				sig   uint64 // progress signature at claim time
				hier  uint64 // hierarchy digest at claim time
			}
			var c *claim
			windows := 0

			stepEveryCycle(t, s, tc.kernel, func() {
				// Verify the outstanding claim before anything else: we
				// are now strictly inside (c.at, c.until), so the machine
				// must not have moved.
				if c != nil && s.now < c.until {
					if got := s.progressSig(); got != c.sig {
						t.Fatalf("progress signature changed at cycle %d inside claimed-quiet window (%d, %d)",
							s.now, c.at, c.until)
					}
					if got := digest(); got != c.hier {
						t.Fatalf("hierarchy state changed at cycle %d inside claimed-quiet window (%d, %d)",
							s.now, c.at, c.until)
					}
					return // claim still standing; no need to re-probe
				}
				c = nil
				horizon := s.Sys.NextEvent(s.now)
				m := horizon
				if s.cur.phase == phaseRun {
					// SMs tick in this phase, so a machine-wide claim also
					// needs every SM provably stalled until the window ends.
					for _, sm := range s.SMs {
						p, ok := sm.Quiesce()
						if !ok {
							m = s.now + 1
							break
						}
						m = min(m, p.Wake)
					}
				}
				if m > s.now+1 {
					c = &claim{at: s.now, until: m, sig: s.progressSig(), hier: digest()}
					windows++
				}
			})
			if windows == 0 {
				t.Fatal("no quiet window was ever claimed; the property test is vacuous")
			}
		})
	}
}

// TestComponentWakeClaimsSound is the per-component refinement of
// TestHorizonClaimsSound: the property behind TickDue's dispatch
// decisions. TestHorizonClaimsSound proves the MACHINE-wide claim;
// this one probes each component's LOCAL claim — the exact contract the
// per-component dispatcher sleeps on:
//
//   - an L1/L2 reporting Quiescent() promises Tick at any future cycle
//     is a pure no-op until new input arrives;
//   - an L2 reporting TimedWake(now) = W promises Tick on any cycle
//     before W only counts stall cycles, exactly as SyncClock does;
//   - the NoC's NextWork(now) promises Tick on any earlier cycle only
//     advances its clock;
//   - a DRAM partition's NextEvent(now) promises the same with no clock
//     at all.
//
// Stepping a simulation through the tick-everything reference loop
// (stepEveryCycle), every component currently claiming quiet is
// given an EXTRA Tick one cycle in the future, its clock is restored
// with SyncClock/Sync, and its canonical state digest must be
// bit-identical — so each probe is also provably invisible to the
// ongoing run, and the run doubles as millions of adversarial inputs.
// An overclaiming component fails here with its name and cycle rather
// than as a fingerprint mismatch 80 tests later.
func TestComponentWakeClaimsSound(t *testing.T) {
	cases := []struct {
		name   string
		proto  memsys.Protocol
		cons   gpu.Consistency
		kernel *gpu.Kernel
		timed  bool // the run must exercise L2 timed wakes
	}{
		{"gtsc-conflict", memsys.GTSC, gpu.RC, conflictKernel(0x60000, 4, 8), false},
		{"gtsc-writeread", memsys.GTSC, gpu.RC, writeReadKernel(0x50000), false},
		{"dir-conflict", memsys.DIR, gpu.RC, conflictKernel(0x61000, 4, 8), false},
		{"tc-writeread", memsys.TC, gpu.RC, writeReadKernel(0x52000), false},
		// TC-Strong: conflicting stores park at the L2 behind live
		// leases, so banks claim timed wakes.
		{"tc-sc-conflict", memsys.TC, gpu.SC, conflictKernel(0x62000, 4, 8), true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := New(smallConfig(tc.proto, tc.cons))

			// Component clocks advance on the probe tick by design;
			// SyncClock restores them, and the comparison strips them
			// anyway (clocks are schedule, not state).
			clocks := regexp.MustCompile(` now=\d+`)
			digest := func(d coherence.StateDigester) uint64 {
				var buf bytes.Buffer
				d.DigestState(&buf)
				h := fnv.New64a()
				h.Write(clocks.ReplaceAll(buf.Bytes(), nil))
				return h.Sum64()
			}

			covered := map[string]int{}
			stepEveryCycle(t, s, tc.kernel, func() {
				// Every component ticked at s.now; probe one cycle ahead.
				probe := s.now + 1
				sys := s.Sys
				for j, l1 := range sys.L1s {
					if !l1.Quiescent() {
						continue
					}
					d := l1.(coherence.StateDigester)
					before := digest(d)
					l1.Tick(probe)
					l1.SyncClock(s.now)
					if digest(d) != before {
						t.Fatalf("l1[%d] claimed Quiescent at cycle %d but Tick(%d) changed state", j, s.now, probe)
					}
					covered["l1"]++
				}
				for j, l2 := range sys.L2s {
					if at, ok := l2.TimedWake(s.now); ok && at > probe {
						// Tick(probe) must leave the state alone and
						// count exactly what SyncClock(probe) adds. Both
						// probes are undone: stats restored, clock
						// synced back (a backward SyncClock counts
						// nothing).
						d := l2.(coherence.StateDigester)
						before, saved := digest(d), *l2.Stats()
						l2.SyncClock(probe)
						synced := *l2.Stats()
						*l2.Stats() = saved
						l2.SyncClock(s.now)
						l2.Tick(probe)
						ticked := *l2.Stats()
						*l2.Stats() = saved
						l2.SyncClock(s.now)
						if digest(d) != before {
							t.Fatalf("l2[%d] claimed TimedWake %d at cycle %d but Tick(%d) changed state", j, at, s.now, probe)
						}
						if ticked != synced {
							t.Fatalf("l2[%d] claimed TimedWake %d at cycle %d but Tick(%d) counted %+v, SyncClock %+v", j, at, s.now, probe, ticked, synced)
						}
						covered["l2-timed"]++
					}
					if !l2.Quiescent() {
						continue
					}
					d := l2.(coherence.StateDigester)
					before := digest(d)
					l2.Tick(probe)
					l2.SyncClock(s.now)
					if digest(d) != before {
						t.Fatalf("l2[%d] claimed Quiescent at cycle %d but Tick(%d) changed state", j, s.now, probe)
					}
					covered["l2"]++
				}
				if sys.Net.NextWork(s.now) > probe {
					before := digest(sys.Net)
					sys.Net.Tick(probe)
					sys.Net.Sync(s.now)
					if digest(sys.Net) != before {
						t.Fatalf("noc claimed NextWork beyond %d at cycle %d but Tick(%d) changed state", probe, s.now, probe)
					}
					covered["noc"]++
				}
				for j, p := range sys.Parts {
					if p.NextEvent(s.now) <= probe {
						continue
					}
					before := digest(p)
					p.Tick(probe)
					if digest(p) != before {
						t.Fatalf("dram[%d] claimed NextEvent beyond %d at cycle %d but Tick(%d) changed state", j, probe, s.now, probe)
					}
					covered["dram"]++
				}
			})
			classes := []string{"l1", "l2", "noc", "dram"}
			if tc.timed {
				classes = append(classes, "l2-timed")
			}
			for _, class := range classes {
				if covered[class] == 0 {
					t.Errorf("component class %q never claimed a quiet cycle; its half of the property test is vacuous", class)
				}
			}
		})
	}
}

// TestChaosNeverTrustsHorizons pins the soundness story under fault
// injection: delay shims hold messages on release schedules the
// next-event query does not model, so under an active injector the
// hierarchy must bound every horizon claim at now+1 and the engine
// must keep every slot Hot — no skipped cycle, no per-component
// dispatch, no SM sleep — and tick the hierarchy wholesale. The run
// must reproduce its pinned fingerprint (faultPins), which was
// recorded on a loop that ticked every component every cycle.
func TestChaosNeverTrustsHorizons(t *testing.T) {
	for _, seed := range faultSeeds {
		seed := seed
		name := fmt.Sprintf("gtsc/chaos/seed%d", seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			s := New(faultPinConfig(memsys.GTSC, fault.Chaos(seed)))
			if got := s.Sys.NextEvent(123); got != 124 {
				t.Fatalf("faulted hierarchy claimed horizon %d from cycle 123, want 124", got)
			}
			run, err := s.Run(conflictKernel(0x60000, 4, 8))
			if err != nil {
				t.Fatal(err)
			}
			eng := s.Engine()
			if eng.RunCycles == 0 {
				t.Fatal("engine executed no run cycle")
			}
			if skipped := eng.SkippedCycles(); skipped != 0 {
				t.Errorf("engine skipped %d cycles under fault injection", skipped)
			}
			if ticks, sleeps := eng.Comp.HierarchyTicks(), eng.Comp.HierarchySleeps(); ticks != 0 || sleeps != 0 {
				t.Errorf("per-component dispatch ran under fault injection (%d ticks, %d sleeps); perturbed runs must tick the hierarchy wholesale", ticks, sleeps)
			}
			if want := eng.RunCycles * uint64(len(s.SMs)); eng.SMTicks != want || eng.SMSleepCycles != 0 {
				t.Errorf("SM ticks %d (want %d), SM sleep cycles %d (want 0): an SM slept under fault injection", eng.SMTicks, want, eng.SMSleepCycles)
			}
			for _, pin := range faultPins {
				if pin.name == name && fingerprint(run) != pin.hash {
					t.Errorf("fingerprint = %#x, pinned %#x", fingerprint(run), pin.hash)
				}
			}
		})
	}
}

// stepEveryCycle runs kernel on s through the refEveryCycle reference
// loop — no skipped cycle, no sleeping SM, no per-component dispatch —
// and calls check after each cycle. Wake claims are thus recorded by
// the checks but never acted on.
func stepEveryCycle(t *testing.T, s *Simulator, kernel *gpu.Kernel, check func()) {
	t.Helper()
	s.beginKernel(kernel)
	_, _, err := s.refAdvance(0, refEveryCycle, func() {
		if s.now > 100_000 {
			t.Fatal("step budget exhausted")
		}
		check()
	})
	if err != nil {
		t.Fatal(err)
	}
}
