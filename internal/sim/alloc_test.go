package sim_test

import (
	"runtime"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TestAllocationBudget bounds the heap allocations one small run makes
// per 1 K simulated cycles, per protocol. Every controller draws its
// messages and data blocks from the machine's pool and frees what it
// consumes (see mem.Pool), so what remains is machine construction,
// per-kernel set-up and verification. A controller that goes back to
// allocating per message blows its budget several times over.
//
// The count is runtime.MemStats.Mallocs across one run of a freshly
// built instance, after a warm-up run has paid for one-time
// initialization. The test must not run in parallel with others.
func TestAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name     string
		workload string
		proto    memsys.Protocol
		cons     gpu.Consistency
		budget   float64 // mallocs per 1 K simulated cycles
	}{
		{"gtsc-rc", "BH", memsys.GTSC, gpu.RC, 900},
		{"tc-rc", "BH", memsys.TC, gpu.RC, 450},
		{"tc-sc", "BH", memsys.TC, gpu.SC, 400},
		{"bl-rc", "BH", memsys.BL, gpu.RC, 800},
		{"dir-rc", "BH", memsys.DIR, gpu.RC, 1100},
		{"l1nc-rc", "KM", memsys.L1NC, gpu.RC, 4500},
	} {
		t.Run(c.name, func(t *testing.T) {
			wl, ok := workload.ByName(c.workload)
			if !ok {
				t.Fatalf("unknown workload %q", c.workload)
			}
			cfg := sim.DefaultConfig()
			cfg.Mem.NumSMs = 4
			cfg.Mem.NumBanks = 4
			cfg.Mem.Protocol, cfg.SM.Consistency = c.proto, c.cons
			if _, err := wl.Build(1).Run(cfg); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			inst := wl.Build(1)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run, err := inst.Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			mallocs := after.Mallocs - before.Mallocs
			perK := 1000 * float64(mallocs) / float64(run.Cycles)
			t.Logf("%s %s: %d mallocs over %d cycles = %.0f per 1K cycles (budget %.0f)",
				c.workload, c.name, mallocs, run.Cycles, perK, c.budget)
			if perK > c.budget {
				t.Errorf("%.0f mallocs per 1K cycles, budget %.0f", perK, c.budget)
			}
		})
	}
}
