// Command goldengen regenerates the fingerprint table of
// internal/sim/golden_test.go (TestOptimizedCycleLoopBitIdentical).
// Run it on a known-good build and paste its output into the test
// whenever the simulated machine's intended behaviour changes.
package main

import (
	"fmt"
	"hash/fnv"

	"github.com/gtsc-sim/gtsc/internal/dram"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/noc"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

func main() {
	type cfgT struct {
		label  string
		proto  memsys.Protocol
		cons   gpu.Consistency
		mesh   bool
		bank   bool
		tsbits int
	}
	cfgs := []cfgT{
		{"gtsc-rc", memsys.GTSC, gpu.RC, false, false, 0},
		{"gtsc-sc", memsys.GTSC, gpu.SC, false, false, 0},
		{"gtsc-tso", memsys.GTSC, gpu.TSO, false, false, 0},
		{"tc-rc", memsys.TC, gpu.RC, false, false, 0},
		{"bl-rc", memsys.BL, gpu.RC, false, false, 0},
		{"dir-rc", memsys.DIR, gpu.RC, false, false, 0},
		{"gtsc-rc-mesh-banked", memsys.GTSC, gpu.RC, true, true, 0},
		// 8-bit timestamps: the §V-D overflow reset becomes a routine
		// event, so its epoch-crossing paths are golden-pinned too.
		{"gtsc-rc-ts8", memsys.GTSC, gpu.RC, false, false, 8},
	}
	for _, wl := range workload.All() {
		for _, c := range cfgs {
			cfg := sim.DefaultConfig()
			cfg.Mem.Protocol = c.proto
			cfg.Mem.NumSMs = 4
			cfg.Mem.NumBanks = 4
			cfg.SM.Consistency = c.cons
			if c.mesh {
				cfg.Mem.NoC = noc.DefaultMeshConfig()
			}
			if c.bank {
				cfg.Mem.DRAM = dram.DefaultBankedConfig()
			}
			cfg.Mem.GTSC.TSBits = c.tsbits
			run, err := wl.Build(1).Run(cfg)
			if err != nil {
				panic(fmt.Sprintf("%s/%s: %v", wl.Name, c.label, err))
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", *run)
			fmt.Printf("\t{%q, %q, %d, %d, %#x},\n", wl.Name, c.label, run.Cycles, run.NoC.TotalFlits(), h.Sum64())
		}
	}
}
