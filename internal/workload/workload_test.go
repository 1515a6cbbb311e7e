package workload

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
)

// testConfig builds a reduced machine (4 SMs) so the full suite runs
// quickly under `go test`.
func testConfig(p memsys.Protocol, c gpu.Consistency) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = p
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 4
	cfg.SM.Consistency = c
	cfg.MaxCycles = 20_000_000
	return cfg
}

func coherentConfigs() map[string]sim.Config {
	return map[string]sim.Config{
		"gtsc-rc": testConfig(memsys.GTSC, gpu.RC),
		"gtsc-sc": testConfig(memsys.GTSC, gpu.SC),
		"tc-rc":   testConfig(memsys.TC, gpu.RC),
		"tc-sc":   testConfig(memsys.TC, gpu.SC),
		"bl-rc":   testConfig(memsys.BL, gpu.RC),
	}
}

// TestCoherenceSetConverges verifies all six coherence-requiring
// workloads reach the exact sequential fixpoint under every coherent
// configuration.
func TestCoherenceSetConverges(t *testing.T) {
	for _, w := range CoherenceSet() {
		for name, cfg := range coherentConfigs() {
			w, cfg := w, cfg
			t.Run(w.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				inst := w.Build(1)
				run, err := inst.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if run.Cycles == 0 || run.L1.Loads == 0 && cfg.Mem.Protocol != memsys.BL {
					t.Fatalf("suspicious stats: %v", run)
				}
			})
		}
	}
}

// TestNonCoherenceSet verifies the six coherence-free workloads under
// every configuration including the non-coherent L1.
func TestNonCoherenceSet(t *testing.T) {
	cfgs := coherentConfigs()
	cfgs["l1nc-rc"] = testConfig(memsys.L1NC, gpu.RC)
	cfgs["l1nc-sc"] = testConfig(memsys.L1NC, gpu.SC)
	for _, w := range NonCoherenceSet() {
		for name, cfg := range cfgs {
			w, cfg := w, cfg
			t.Run(w.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				if _, err := w.Build(1).Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCoherenceSetNeedsCoherence demonstrates the paper's premise: a
// non-coherent L1 produces wrong results on the first benchmark set
// (stale labels never propagate between SMs).
func TestCoherenceSetNeedsCoherence(t *testing.T) {
	cfg := testConfig(memsys.L1NC, gpu.RC)
	inst := CC().Build(1)
	if _, err := inst.Run(cfg); err == nil {
		t.Fatal("CC verified successfully under a non-coherent L1; it must not")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("expected 12 workloads, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Fatalf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.Description == "" {
			t.Fatalf("%s: empty description", w.Name)
		}
		if _, ok := ByName(w.Name); !ok {
			t.Fatalf("%s not found by name", w.Name)
		}
	}
	if len(CoherenceSet()) != 6 || len(NonCoherenceSet()) != 6 {
		t.Fatal("sets must be 6+6")
	}
	for _, w := range CoherenceSet() {
		if !w.NeedsCoherence {
			t.Fatalf("%s should need coherence", w.Name)
		}
	}
	for _, w := range NonCoherenceSet() {
		if w.NeedsCoherence {
			t.Fatalf("%s should not need coherence", w.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should fail")
	}
}

// TestGEBuildsAtTallTiles: from scale 14 a GE tile has more rows than
// columns, so elimination runs out of pivot columns before it runs out
// of rows; the reference and the kernel must both stop there and agree.
func TestGEBuildsAtTallTiles(t *testing.T) {
	inst := GE().Build(14)
	if _, err := inst.Run(testConfig(memsys.GTSC, gpu.RC)); err != nil {
		t.Fatal(err)
	}
}
