package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/dram"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/noc"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

type sessionCtxKey struct{}

// TestEveryCellHonoursSession runs every driver of the suite against a
// session with non-default result-affecting settings and a stubbed
// simulator, and checks that every cell — override machines included —
// reached the runSim seam under the session's context, with the
// session's leases, timestamp width, fault plan and watchdog,
// and with its own machine geometry.
func TestEveryCellHonoursSession(t *testing.T) {
	cfg := tinyConfig()
	cfg.GTSCLease = 13
	cfg.GTSCTSBits = 12
	cfg.TCLease = 555
	cfg.FaultSeed = 9
	cfg.WatchdogWindow = 77_777
	ctx := context.WithValue(context.Background(), sessionCtxKey{}, true)
	s := NewSession(cfg).WithContext(ctx)

	var mu sync.Mutex
	var cfgs []sim.Config
	s.runSim = func(ctx context.Context, inst *workload.Instance, c sim.Config) (*stats.Run, error) {
		if ctx.Value(sessionCtxKey{}) == nil {
			t.Error("a cell ran without the session context")
		}
		mu.Lock()
		cfgs = append(cfgs, c)
		mu.Unlock()
		return &stats.Run{Cycles: 1000, L1: stats.L1Stats{Loads: 10, Hits: 5}}, nil
	}
	for _, d := range s.drivers() {
		if _, err := d.run(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}

	if got, want := len(cfgs), len(s.CachedRuns()); got != want {
		t.Fatalf("%d cells ran through runSim, %d cells completed: some cells bypass the seam", got, want)
	}

	// Fig 14 is the only driver whose variants set their own lease:
	// lease 10 plus 8, 12, ..., 20 on every coherence workload.
	figLeases := map[uint64]bool{8: true, 10: true, 12: true, 14: true, 16: true, 18: true, 20: true}
	ownLease := 0
	type geometry struct {
		sms, banks, l1Sets, l1MSHRs int
		mesh, banked                bool
	}
	seen := map[geometry]bool{}
	for _, c := range cfgs {
		if c.Mem.GTSC.Lease != cfg.GTSCLease {
			if !figLeases[c.Mem.GTSC.Lease] {
				t.Errorf("G-TSC lease %d is neither the session's nor a Fig-14 variant's", c.Mem.GTSC.Lease)
			}
			ownLease++
		}
		if c.Mem.GTSC.TSBits != cfg.GTSCTSBits || c.Mem.TC.Lease != cfg.TCLease ||
			c.WatchdogWindow != cfg.WatchdogWindow ||
			c.MaxCycles != s.Cfg.MaxCycles || !reflect.DeepEqual(c.Mem.Fault, fault.Chaos(cfg.FaultSeed)) {
			t.Errorf("cell config ignores the session: tsbits %d, tc lease %d, watchdog %d, max cycles %d, fault %+v",
				c.Mem.GTSC.TSBits, c.Mem.TC.Lease, c.WatchdogWindow, c.MaxCycles, c.Mem.Fault)
		}
		seen[geometry{
			c.Mem.NumSMs, c.Mem.NumBanks, c.Mem.L1Sets, c.Mem.L1MSHRs,
			reflect.DeepEqual(c.Mem.NoC, noc.DefaultMeshConfig()),
			reflect.DeepEqual(c.Mem.DRAM, dram.DefaultBankedConfig()),
		}] = true
	}
	if want := 7 * len(workload.CoherenceSet()); ownLease != want {
		t.Errorf("%d cells ran with a variant's own lease, want %d (Fig 14)", ownLease, want)
	}

	def := sim.DefaultConfig().Mem
	base := geometry{cfg.NumSMs, cfg.NumBanks, def.L1Sets, def.L1MSHRs, false, false}
	want := []geometry{base}
	for _, sms := range []int{4, 8, 16, 32} { // scale and dir sweeps
		g := base
		g.sms, g.banks = sms, max(sms/2, 2)
		want = append(want, g)
	}
	for _, l1 := range [][2]int{{16, 16}, {32, 32}, {64, 32}, {128, 64}} { // cache sweep
		g := base
		g.l1Sets, g.l1MSHRs = l1[0], l1[1]
		want = append(want, g)
	}
	for _, sub := range [][2]bool{{true, false}, {false, true}, {true, true}} { // platform sweep
		g := base
		g.mesh, g.banked = sub[0], sub[1]
		want = append(want, g)
	}
	for _, g := range want {
		if !seen[g] {
			t.Errorf("no cell ran on machine %+v", g)
		}
	}
}
