package sim_test

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TestEngineCountersConsistent sanity-checks the EngineStats
// bookkeeping on one memory-bound golden row: executed + skipped run
// cycles must equal the simulated kernel cycles, and the engine must
// actually have skipped some.
func TestEngineCountersConsistent(t *testing.T) {
	wl, ok := workload.ByName("BH")
	if !ok {
		t.Fatal("workload BH missing")
	}
	cfg, _ := goldenConfig("gtsc-rc")

	s := sim.New(cfg)
	run, err := wl.Build(1).RunOn(s)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	eng := s.Engine()
	if eng.RunCycles+eng.RunSkipped != run.Cycles {
		t.Errorf("run cycles executed+skipped = %d+%d, want %d", eng.RunCycles, eng.RunSkipped, run.Cycles)
	}
	if eng.RunSkipped == 0 {
		t.Error("no run cycle was skipped on a memory-bound workload")
	}
}
