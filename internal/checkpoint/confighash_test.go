package checkpoint

import (
	"reflect"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
)

// TestConfigHashPinned fixes ConfigHash for representative configs.
// Checkpoint files and the sweep's content-addressed result keys both
// carry this value, so a change here orphans every saved checkpoint
// and cached sweep result.
func TestConfigHashPinned(t *testing.T) {
	tcsc := sim.DefaultConfig()
	tcsc.Mem.Protocol, tcsc.SM.Consistency = memsys.TC, gpu.SC
	faulted := sim.DefaultConfig()
	faulted.Mem.Fault = fault.Chaos(7)
	for _, c := range []struct {
		name string
		cfg  sim.Config
		want uint64
	}{
		{"default", sim.DefaultConfig(), 0x611623b9b5b3fc47},
		{"tc-sc", tcsc, 0xf141743251e757e1},
		{"fault7", faulted, 0x97d96a05aefbbab3},
	} {
		if got := ConfigHash(c.cfg); got != c.want {
			t.Errorf("%s: ConfigHash = %#x, pinned %#x", c.name, got, c.want)
		}
	}
}

// TestConfigHashCoversConfig fails when sim.Config gains or loses a
// field: ConfigHash renders a fixed field list, so a new field must be
// added to that rendering (if it changes what the machine computes) or
// to the excluded list here (if it only schedules or observes).
func TestConfigHashCoversConfig(t *testing.T) {
	want := []string{"Mem", "SM", "MaxCycles", "WatchdogWindow", "DisableWatchdog", "Observer", "ProfileLabels"}
	typ := reflect.TypeOf(sim.Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sim.Config fields = %v, ConfigHash covers %v", got, want)
	}
}
