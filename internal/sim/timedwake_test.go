package sim_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TestTCStrongBanksSleepThroughLeases pins the dispatch counters of one
// TC-Strong run, the Fig-12 STN cell on a 4-SM, 4-bank machine. Under
// TC-Strong a store waits at the L2 until the block's leases expire; a
// bank whose only work is such waiting sleeps until the next expiry
// that matters (coherence.L2.TimedWake) instead of being ticked every
// cycle. The counters are deterministic, so a regression back to
// per-cycle ticking shows here as a jump in L2Ticks and a collapse of
// RunSkipped. The fingerprint was recorded with a loop that never
// slept a blocked bank, so it is the reference the timed wakes must
// reproduce. No golden row covers TC-Strong.
//
// To regenerate after an intended change to the machine or the engine,
// run `go test ./internal/sim -run TestTCStrongBanksSleepThroughLeases -v`
// and copy the reported values.
func TestTCStrongBanksSleepThroughLeases(t *testing.T) {
	const (
		wantFingerprint = 0x55b697d23876382
		wantL2Ticks     = 2854  // 59797 when blocked banks tick every cycle
		wantRunSkipped  = 12949 // 1391 when blocked banks tick every cycle
	)
	wl, ok := workload.ByName("STN")
	if !ok {
		t.Fatal("no STN workload")
	}
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol, cfg.SM.Consistency = memsys.TC, gpu.SC
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 4
	cfg.Mem.L1Sets = 8
	cfg.Mem.L1Ways = 2
	cfg.Mem.L1MSHRs = 8
	cfg.Mem.L2Sets = 32
	cfg.Mem.L2Ways = 4

	s := sim.New(cfg)
	run, err := wl.Build(1).RunOn(s)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *run)
	eng := s.Engine()
	t.Logf("fingerprint %#x, L2Ticks %d, L2Sleeps %d, RunSkipped %d, write stall cycles %d",
		h.Sum64(), eng.Comp.L2Ticks, eng.Comp.L2Sleeps, eng.RunSkipped, run.L2.WriteStalls)
	if got := h.Sum64(); got != wantFingerprint {
		t.Errorf("stats.Run fingerprint = %#x, want %#x", got, wantFingerprint)
	}
	if eng.Comp.L2Ticks != wantL2Ticks {
		t.Errorf("L2 bank ticks = %d, want %d", eng.Comp.L2Ticks, wantL2Ticks)
	}
	if eng.RunSkipped != wantRunSkipped {
		t.Errorf("skipped run cycles = %d, want %d", eng.RunSkipped, wantRunSkipped)
	}
}
