package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// The testdata checkpoints were written by the simulator as it stood
// before the relaxed-sync engine was removed, on the golden CC/gtsc-rc
// machine (4 SMs, 4 banks, scale 1):
//
//   - cc-gtsc-rc-paused.ckpt: bit-exact, paused at cycles 1000, 2500
//     and 4000, so its pause-cycle list is non-empty;
//   - cc-gtsc-rc-slack32.ckpt: relaxed sync at slack 32, paused at
//     1000, 2500 and 4001.
const fixtureCCGolden = 0x4bc32a5670c84930 // sim golden row CC/gtsc-rc

func fixtureConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.NumSMs, cfg.Mem.NumBanks = 4, 4
	cfg.Mem.Protocol, cfg.SM.Consistency = memsys.GTSC, gpu.RC
	return cfg
}

func fixtureCC(t *testing.T) *workload.Workload {
	t.Helper()
	for _, wl := range workload.All() {
		if wl.Name == "CC" {
			return wl
		}
	}
	t.Fatal("workload CC not found")
	return nil
}

// TestResumeOldPausedCheckpoint: a bit-exact checkpoint that recorded
// its pause schedule resumes by replaying straight to its cycle and
// finishes with the golden fingerprint.
func TestResumeOldPausedCheckpoint(t *testing.T) {
	ck, err := LoadFile("testdata/cc-gtsc-rc-paused.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wl := fixtureCC(t)
	e, err := ResumeExecution(ck, fixtureConfig(), wl.Build(1), "CC", 1)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	run, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *run)
	if got := h.Sum64(); got != fixtureCCGolden {
		t.Errorf("resumed fingerprint = %#x, golden %#x", got, uint64(fixtureCCGolden))
	}
}

// TestResumeRelaxedCheckpointRefused: a checkpoint taken under the
// retired relaxed-sync engine carries the bit-exact config hash, but
// its state lies off the one engine's trajectory, so resume refuses it.
func TestResumeRelaxedCheckpointRefused(t *testing.T) {
	ck, err := LoadFile("testdata/cc-gtsc-rc-slack32.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ResumeExecution(ck, fixtureConfig(), fixtureCC(t).Build(1), "CC", 1)
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("resume: err = %v, want ErrDigestMismatch", err)
	}
}
