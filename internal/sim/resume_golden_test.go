package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TestKillResumeGoldenEquivalence is the kill-anywhere/resume
// acceptance gate: every golden row is paused at a fuzzed arbitrary
// cycle, checkpointed through the binary codec, restored into a fresh
// process-like state (new workload instance, new simulator — nothing
// shared with the paused machine), and run to completion. The final
// stats fingerprint must be bit-identical to the uninterrupted golden
// — restore is the same run, not approximately the same run.
func TestKillResumeGoldenEquivalence(t *testing.T) {
	wls := map[string]*workload.Workload{}
	for _, wl := range workload.All() {
		wls[wl.Name] = wl
	}
	for _, row := range goldenRows {
		row := row
		t.Run(row.workload+"/"+row.config, func(t *testing.T) {
			t.Parallel()
			wl := wls[row.workload]
			cfg, ok := goldenConfig(row.config)
			if !ok {
				t.Fatalf("unknown config label %q", row.config)
			}
			// Fuzzed but reproducible pause cycle: derived from the
			// golden hash, somewhere inside the run.
			pause := 1 + row.hash%row.cycles

			e1 := checkpoint.NewExecution(cfg, wl.Build(1), row.workload, 1)
			_, paused, err := e1.RunUntil(context.Background(), pause)
			if err != nil {
				t.Fatalf("run to pause cycle %d failed: %v", pause, err)
			}
			if !paused {
				t.Fatalf("execution did not pause at cycle %d", pause)
			}

			// Round-trip the checkpoint through the binary codec, as a
			// kill + restart would.
			var buf bytes.Buffer
			if err := e1.Checkpoint().Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			ck, err := checkpoint.Decode(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}

			// Fresh process-like state: new instance, new machine.
			e2, err := checkpoint.ResumeExecution(ck, cfg, wl.Build(1), row.workload, 1)
			if err != nil {
				t.Fatalf("resume (verified replay to cycle %d): %v", ck.Cycle, err)
			}
			run, err := e2.Run(context.Background())
			if err != nil {
				t.Fatalf("post-resume run failed: %v", err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", *run)
			if got := h.Sum64(); got != row.hash {
				t.Errorf("resumed-run fingerprint = %#x, golden %#x (pause at %d diverged)", got, row.hash, pause)
			}
		})
	}
}

// TestMultiPauseHandoffGoldenEquivalence hands a repeatedly paused
// execution to a fresh machine, for every coherence-set workload under
// every coherent protocol at RC. The original pauses at thirteen
// cycles that fall on no round boundary, and its checkpoint goes
// through the wire format. A checkpoint records only the coordinate it
// was taken at, so ResumeExecution replays straight to it, and the
// digest check passes only if those pauses left no trace in the
// machine. Both executions must then finish on the golden fingerprint,
// with the same architected memory word for word.
func TestMultiPauseHandoffGoldenEquivalence(t *testing.T) {
	coherent := map[string]bool{"gtsc-rc": true, "tc-rc": true, "bl-rc": true, "dir-rc": true}
	coherence := map[string]*workload.Workload{}
	for _, wl := range workload.CoherenceSet() {
		coherence[wl.Name] = wl
	}
	for _, row := range goldenRows {
		wl := coherence[row.workload]
		if wl == nil || !coherent[row.config] {
			continue
		}
		row := row
		t.Run(row.workload+"/"+row.config, func(t *testing.T) {
			t.Parallel()
			cfg, ok := goldenConfig(row.config)
			if !ok {
				t.Fatalf("unknown config label %q", row.config)
			}
			ctx := context.Background()

			orig := checkpoint.NewExecution(cfg, wl.Build(1), row.workload, 1)
			for i := uint64(1); i <= 13; i++ {
				p := i*row.cycles/16 + 2*i + 1
				if _, paused, err := orig.RunUntil(ctx, p); err != nil {
					t.Fatalf("pause at %d: %v", p, err)
				} else if !paused {
					t.Fatalf("run completed before pause cycle %d", p)
				}
			}

			frame, err := orig.Checkpoint().EncodeBytes()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			ck, err := checkpoint.DecodeBytes(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			resumed, err := checkpoint.ResumeExecution(ck, cfg, wl.Build(1), row.workload, 1)
			if err != nil {
				t.Fatalf("resume (verified replay to cycle %d): %v", ck.Cycle, err)
			}

			origRun, err := orig.Run(ctx)
			if err != nil {
				t.Fatalf("original completion: %v", err)
			}
			resumedRun, err := resumed.Run(ctx)
			if err != nil {
				t.Fatalf("resumed completion: %v", err)
			}
			checkGoldenRow(t, row, origRun)
			checkGoldenRow(t, row, resumedRun)
			checkSameMemory(t, orig.Sim(), resumed.Sim())
		})
	}
}

// checkSameMemory compares the architected memory of two finished
// simulations (the L2-overlaid view ReadWord exposes) over every block
// either one allocated.
func checkSameMemory(t *testing.T, a, b *sim.Simulator) {
	t.Helper()
	seen := map[mem.BlockAddr]bool{}
	compare := func(blk mem.BlockAddr) {
		if seen[blk] {
			return
		}
		seen[blk] = true
		for i := 0; i < mem.WordsPerBlock; i++ {
			w := blk.WordAddr(i)
			if x, y := a.ReadWord(w), b.ReadWord(w); x != y {
				t.Fatalf("word %#x: %#x vs %#x", uint64(w), x, y)
			}
		}
	}
	a.Store.ForEachBlock(compare)
	b.Store.ForEachBlock(compare)
	if len(seen) == 0 {
		t.Fatal("neither simulation allocated memory; the comparison is vacuous")
	}
}
