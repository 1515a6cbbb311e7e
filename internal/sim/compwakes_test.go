package sim_test

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TestComponentDispatchAccounting pins the bookkeeping identity behind
// the engine's hierarchy breakdown: under per-component dispatch every
// executed cycle makes exactly one tick-or-sleep decision per
// component, so per class ticks + sleeps = executed cycles * class
// size — and on real workloads at least one class must actually sleep,
// or the dispatcher is dead weight.
func TestComponentDispatchAccounting(t *testing.T) {
	wl := func() *workload.Workload {
		for _, w := range workload.All() {
			if w.Name == "CC" {
				return w
			}
		}
		t.Fatal("workload CC missing")
		return nil
	}()
	for _, label := range []string{"gtsc-rc", "tc-rc"} {
		label := label
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			cfg, ok := goldenConfig(label)
			if !ok {
				t.Fatalf("unknown config label %q", label)
			}
			s := sim.New(cfg)
			if _, err := wl.Build(1).RunOn(s); err != nil {
				t.Fatalf("run failed: %v", err)
			}
			eng := s.Engine()
			executed := eng.RunCycles + eng.DrainCycles
			if executed == 0 {
				t.Fatal("engine never dispatched; accounting test is vacuous")
			}
			c := eng.Comp
			nL1, nL2, nPart := len(s.Sys.L1s), len(s.Sys.L2s), len(s.Sys.Parts)
			checks := []struct {
				class         string
				ticks, sleeps uint64
				size          int
			}{
				{"noc", c.NoCTicks, c.NoCSleeps, 1},
				{"dram", c.DRAMTicks, c.DRAMSleeps, nPart},
				{"l2", c.L2Ticks, c.L2Sleeps, nL2},
				{"l1", c.L1Ticks, c.L1Sleeps, nL1},
			}
			for _, ch := range checks {
				want := executed * uint64(ch.size)
				if got := ch.ticks + ch.sleeps; got != want {
					t.Errorf("%s: ticks %d + sleeps %d = %d, want executed cycles (%d) * %d = %d",
						ch.class, ch.ticks, ch.sleeps, got, executed, ch.size, want)
				}
			}
			if c.HierarchySleeps() == 0 {
				t.Error("no hierarchy component ever slept; per-component dispatch bought nothing on a real workload")
			}
		})
	}
}
