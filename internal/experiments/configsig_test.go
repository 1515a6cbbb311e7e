package experiments

import (
	"reflect"
	"testing"
)

// TestConfigSigPinned fixes the journal config signature for
// representative sessions: every journal header carries it, so a
// change here makes existing journals unresumable.
func TestConfigSigPinned(t *testing.T) {
	tcLease := DefaultConfig()
	tcLease.TCLease = 800
	faulted := DefaultConfig()
	faulted.FaultSeed = 7
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", DefaultConfig(), 0xebe71c0eba742bcf},
		{"tc-lease800", tcLease, 0xdc287e79898b25bb},
		{"fault7", faulted, 0x17c12db0b65c9760},
	} {
		if got := NewSession(c.cfg).configSig(); got != c.want {
			t.Errorf("%s: configSig = %#x, pinned %#x", c.name, got, c.want)
		}
	}
}

// TestConfigSigCoversConfig fails when Config gains or loses a field:
// configSig renders a fixed field list, so a new field must be added
// to that rendering (if it affects results) or to the list here as an
// excluded field (if it only schedules or handles errors).
func TestConfigSigCoversConfig(t *testing.T) {
	want := []string{"Scale", "NumSMs", "NumBanks", "GTSCLease", "GTSCTSBits", "TCLease", "MaxCycles", "Workers", "FaultSeed", "RetryTransient", "KeepGoing", "WatchdogWindow"}
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config fields = %v, configSig covers %v", got, want)
	}
}
