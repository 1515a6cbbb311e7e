package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/noc"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// faultPins fixes the FNV-1a fingerprint of the full stats.Run of
// every fault-injected reference run: fault.Chaos(seed) for each of
// faultSeeds under each coherent protocol, plus one forced-rollover
// plan. The golden table covers unperturbed runs only, so this table
// is what keeps a change to the cycle engine from silently moving a
// perturbed trajectory.
var faultPins = []struct {
	name string
	hash uint64
}{
	{"gtsc/chaos/seed1", 0xcae5f409231225a3},
	{"gtsc/chaos/seed2", 0x54f4074ab2f86bd0},
	{"gtsc/chaos/seed3", 0xd311ce765eea28fa},
	{"tc/chaos/seed1", 0xc6018dada8f00184},
	{"tc/chaos/seed2", 0x19308d4bc7935c19},
	{"tc/chaos/seed3", 0x36acead80143547},
	{"bl/chaos/seed1", 0x7273ba865b5dab4c},
	{"bl/chaos/seed2", 0xa5e5147599f4ee4b},
	{"bl/chaos/seed3", 0x1ef6505c0bebb8a7},
	{"dir/chaos/seed1", 0xe1cd6d26409c5e0b},
	{"dir/chaos/seed2", 0x5959033e05a44679},
	{"dir/chaos/seed3", 0x542bcc036ed08ce0},
	{"gtsc/rollover/seed1", 0xe1ff23622a3191a8},
}

// faultPinConfig builds the machine of one faultPins row.
func faultPinConfig(p memsys.Protocol, plan fault.Config) Config {
	cfg := smallConfig(p, gpu.RC)
	cfg.Mem.NoC = noc.Config{Latency: 4, InjectQueue: 8}
	cfg.Mem.Fault = plan
	return cfg
}

// faultPinRun builds the machine and kernel of the named faultPins row.
func faultPinRun(t *testing.T, name string) (*Simulator, *gpu.Kernel) {
	t.Helper()
	var cfg Config
	var k *gpu.Kernel
	if name == "gtsc/rollover/seed1" {
		cfg = faultPinConfig(memsys.GTSC, fault.ChaosRollover(1))
		k = conflictKernel(0x80000, 64, 16)
	} else {
		for _, pc := range faultProtocols {
			for _, seed := range faultSeeds {
				if name == fmt.Sprintf("%s/chaos/seed%d", pc.name, seed) {
					cfg = faultPinConfig(pc.p, fault.Chaos(seed))
				}
			}
		}
		k = conflictKernel(0x60000, 4, 8)
	}
	if !cfg.Mem.Fault.Enabled() {
		t.Fatalf("unknown fault pin %q", name)
	}
	return New(cfg), k
}

// runFaultPin runs the named faultPins row on the engine and returns
// its simulator and stats.
func runFaultPin(t *testing.T, name string) (*Simulator, *stats.Run) {
	t.Helper()
	s, k := faultPinRun(t, name)
	run, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	return s, run
}

func fingerprint(run *stats.Run) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *run)
	return h.Sum64()
}

// TestFaultRunsPinned replays every faultPins row and compares its
// fingerprint.
func TestFaultRunsPinned(t *testing.T) {
	for _, pin := range faultPins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			t.Parallel()
			s, run := runFaultPin(t, pin.name)
			if got := fingerprint(run); got != pin.hash {
				t.Errorf("%s: fingerprint = %#x, pinned %#x", pin.name, got, pin.hash)
			}
			if pin.name == "gtsc/rollover/seed1" && s.Sys.Resets.Resets() == 0 {
				t.Error("the forced-rollover plan fired no §V-D reset")
			}
		})
	}
}

// TestFaultRunsPinnedOnReference replays every faultPins row on the
// refEveryCycle loop. Under an injector the engine must behave exactly
// like that loop (every slot Hot, wholesale Sys.Tick, the rollover
// check after the SM ticks), so both schedules must hit every pin.
func TestFaultRunsPinnedOnReference(t *testing.T) {
	for _, pin := range faultPins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			t.Parallel()
			s, k := faultPinRun(t, pin.name)
			s.beginKernel(k)
			run, _, err := s.refAdvance(0, refEveryCycle, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(run); got != pin.hash {
				t.Errorf("%s: reference fingerprint = %#x, pinned %#x", pin.name, got, pin.hash)
			}
		})
	}
}
