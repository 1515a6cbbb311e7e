package sim_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// The tests in this file re-run the golden table under schedules other
// than the event engine's own uninterrupted one: the reference loops of
// reference_test.go, hand-offs between the engine and a reference
// mid-kernel, lockstep state comparison, frequent pauses, and an
// attached observer. Results are schedule-independent by contract
// (DESIGN.md §7), so every leg asserts the same golden fingerprints.

// kernelSchedule runs one kernel of a workload on s to completion.
type kernelSchedule func(s *sim.Simulator, k *gpu.Kernel) (*stats.Run, error)

// eventSchedule is the engine's plain uninterrupted run.
func eventSchedule(s *sim.Simulator, k *gpu.Kernel) (*stats.Run, error) { return s.Run(k) }

// referenceSchedule runs each kernel on a reference loop.
func referenceSchedule(skip bool) kernelSchedule {
	return func(s *sim.Simulator, k *gpu.Kernel) (*stats.Run, error) {
		run, _, err := s.RunReferenceUntil(k, 0, skip)
		return run, err
	}
}

// pausedSchedule runs each kernel on the event engine, pausing it
// every stride cycles of the global clock and resuming it at once.
func pausedSchedule(stride uint64) kernelSchedule {
	return func(s *sim.Simulator, k *gpu.Kernel) (*stats.Run, error) {
		ctx := context.Background()
		next := func() uint64 { return s.Now() - s.Now()%stride + stride }
		run, paused, err := s.RunUntil(ctx, k, next())
		for paused && err == nil {
			run, paused, err = s.Resume(ctx, next())
		}
		return run, err
	}
}

// handoffSchedule runs the event engine (toReference) or the
// refEveryCycle loop up to global cycle pause, then the other schedule
// from the paused machine state onward, for this kernel and every
// later one. *handed reports whether the pause point was reached.
func handoffSchedule(pause uint64, toReference bool, handed *bool) kernelSchedule {
	return func(s *sim.Simulator, k *gpu.Kernel) (*stats.Run, error) {
		if *handed {
			if toReference {
				run, _, err := s.RunReferenceUntil(k, 0, false)
				return run, err
			}
			return s.Run(k)
		}
		var run *stats.Run
		var paused bool
		var err error
		if toReference {
			run, paused, err = s.RunUntil(context.Background(), k, pause)
		} else {
			run, paused, err = s.RunReferenceUntil(k, pause, false)
		}
		if err != nil || !paused {
			return run, err
		}
		*handed = true
		if toReference {
			run, _, err = s.ResumeReference(0, false)
		} else {
			run, _, err = s.Resume(context.Background(), 0)
		}
		return run, err
	}
}

// runGoldenRow runs row's workload on a fresh machine (cfg, if
// non-nil, adjusts the row's config) with every kernel driven by sched,
// verifies the workload's result and returns the aggregate stats.
func runGoldenRow(t *testing.T, row goldenRow, cfg func(*sim.Config), sched kernelSchedule) *stats.Run {
	t.Helper()
	wl, ok := workload.ByName(row.workload)
	if !ok {
		t.Fatalf("unknown workload %q", row.workload)
	}
	c, ok := goldenConfig(row.config)
	if !ok {
		t.Fatalf("unknown config label %q", row.config)
	}
	if cfg != nil {
		cfg(&c)
	}
	inst := wl.Build(1)
	s := sim.New(c)
	var agg *stats.Run
	for _, k := range inst.Kernels {
		run, err := sched(s, k)
		if err != nil {
			t.Fatalf("kernel %s: %v", k.Name, err)
		}
		if agg == nil {
			agg = run
		} else {
			agg.Accumulate(run)
		}
	}
	if err := inst.Verify(s.ReadWord); err != nil {
		t.Fatalf("workload verification failed: %v", err)
	}
	return agg
}

// checkGoldenRow compares run with row's pinned cycles, flits and
// fingerprint.
func checkGoldenRow(t *testing.T, row goldenRow, run *stats.Run) {
	t.Helper()
	if run.Cycles != row.cycles {
		t.Errorf("cycles = %d, golden %d", run.Cycles, row.cycles)
	}
	if got := run.NoC.TotalFlits(); got != row.flits {
		t.Errorf("total flits = %d, golden %d", got, row.flits)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *run)
	if got := h.Sum64(); got != row.hash {
		t.Errorf("stats.Run fingerprint = %#x, golden %#x", got, row.hash)
	}
}

// forGoldenRows runs body as a parallel subtest prefix/workload/config
// for every golden row.
func forGoldenRows(t *testing.T, prefix string, body func(t *testing.T, row goldenRow)) {
	for _, row := range goldenRows {
		row := row
		t.Run(prefix+row.workload+"/"+row.config, func(t *testing.T) {
			t.Parallel()
			body(t, row)
		})
	}
}

// TestReferenceLoopGoldenEquivalence runs every golden row on the
// refEveryCycle loop, which ticks the whole hierarchy and every SM on
// every cycle and consults no wake claim. The event engine's
// fingerprints must be exactly what this naive schedule produces: it
// is the end-to-end form of the bit-identity argument that
// TestHorizonClaimsSound and TestComponentWakeClaimsSound check claim
// by claim on small kernels.
func TestReferenceLoopGoldenEquivalence(t *testing.T) {
	forGoldenRows(t, "", func(t *testing.T, row goldenRow) {
		checkGoldenRow(t, row, runGoldenRow(t, row, nil, referenceSchedule(false)))
	})
}

// TestNextEventSkipGoldenEquivalence runs every golden row on the
// refNextEvent loop: whole-machine skips bounded by Sys.NextEvent and
// the SMs' Quiesce probes, with executed cycles ticking everything.
// The agenda plays no part, so this cross-checks the hierarchy's
// NextEvent horizon, SyncClocks and the SMs' bulk stall accounting
// (SkipCycles) over the whole table.
func TestNextEventSkipGoldenEquivalence(t *testing.T) {
	forGoldenRows(t, "", func(t *testing.T, row goldenRow) {
		checkGoldenRow(t, row, runGoldenRow(t, row, nil, referenceSchedule(true)))
	})
}

// TestReferenceHandoffGoldenEquivalence pauses every golden row at a
// row-derived cycle on one schedule and finishes it on the other, in
// both directions. The event engine leaves no lazily-deferred state
// behind at a pause (sleeping SMs are flushed, component clocks are
// synced), and it rebuilds its wakes from live state when it takes
// over, so a machine either schedule paused is a valid starting point
// for the other.
func TestReferenceHandoffGoldenEquivalence(t *testing.T) {
	for _, dir := range []struct {
		name        string
		toReference bool
	}{
		{"event-to-reference/", true},
		{"reference-to-event/", false},
	} {
		dir := dir
		forGoldenRows(t, dir.name, func(t *testing.T, row goldenRow) {
			pause := 1 + row.hash%row.cycles
			handed := false
			checkGoldenRow(t, row, runGoldenRow(t, row, nil, handoffSchedule(pause, dir.toReference, &handed)))
			if !handed {
				t.Fatalf("the run never reached handoff cycle %d", pause)
			}
		})
	}
}

// TestReferenceLockstepDigests runs every golden row on the event
// engine and on the refEveryCycle loop side by side, pausing both every
// lockstepStride cycles, and requires identical machine state digests
// (every SM, cache line, queue and clock, plus the engine's watchdog
// coordinate) at each pause: the schedules agree on the state of the
// machine at every sampled cycle, not only on the final statistics.
func TestReferenceLockstepDigests(t *testing.T) {
	const lockstepStride = 512
	forGoldenRows(t, "", func(t *testing.T, row goldenRow) {
		wl, ok := workload.ByName(row.workload)
		if !ok {
			t.Fatalf("unknown workload %q", row.workload)
		}
		cfg, ok := goldenConfig(row.config)
		if !ok {
			t.Fatalf("unknown config label %q", row.config)
		}
		ctx := context.Background()
		ev, ref := sim.New(cfg), sim.New(cfg)
		inst := wl.Build(1)
		var agg *stats.Run
		pauses := 0
		for _, k := range inst.Kernels {
			stop := ev.Now() - ev.Now()%lockstepStride + lockstepStride
			runE, pausedE, errE := ev.RunUntil(ctx, k, stop)
			runR, pausedR, errR := ref.RunReferenceUntil(k, stop, false)
			for {
				if errE != nil || errR != nil {
					t.Fatalf("kernel %s: engine error %v, reference error %v", k.Name, errE, errR)
				}
				if pausedE != pausedR || ev.Now() != ref.Now() {
					t.Fatalf("kernel %s: engine paused=%v at %d, reference paused=%v at %d",
						k.Name, pausedE, ev.Now(), pausedR, ref.Now())
				}
				if e, r := ev.Snapshot(), ref.Snapshot(); e != r {
					t.Fatalf("kernel %s: engine %+v, reference %+v", k.Name, e, r)
				}
				if !pausedE {
					break
				}
				pauses++
				stop += lockstepStride
				runE, pausedE, errE = ev.Resume(ctx, stop)
				runR, pausedR, errR = ref.ResumeReference(stop, false)
			}
			if !reflect.DeepEqual(runE, runR) {
				t.Fatalf("kernel %s: engine and reference stats differ", k.Name)
			}
			if agg == nil {
				agg = runE
			} else {
				agg.Accumulate(runE)
			}
		}
		if pauses == 0 {
			t.Fatal("no lockstep pause point was reached; the comparison is vacuous")
		}
		if err := inst.Verify(ev.ReadWord); err != nil {
			t.Fatalf("workload verification failed: %v", err)
		}
		checkGoldenRow(t, row, agg)
	})
}

// TestPauseStrideGoldenEquivalence pauses the event engine every N
// cycles and resumes it at once. Each pause cuts a skip window short,
// flushes every sleeping SM, and makes the resumed phase rebuild its
// wakes from live state, so a small stride runs a very different
// schedule from the uninterrupted engine — one that checkpointing
// relies on being exact.
func TestPauseStrideGoldenEquivalence(t *testing.T) {
	for _, stride := range []uint64{7, 64, 1000} {
		stride := stride
		forGoldenRows(t, fmt.Sprintf("stride%d/", stride), func(t *testing.T, row goldenRow) {
			checkGoldenRow(t, row, runGoldenRow(t, row, nil, pausedSchedule(stride)))
		})
	}
}

// TestObserverScheduleIndependent attaches a recorder to every golden
// row on the event engine and on the refEveryCycle loop. Observation
// must not perturb either run, both must report the identical
// operation sequence, and that sequence must pass the ordering checker
// the protocol promises (timestamp order for G-TSC, physical order for
// the baselines and TC-Strong; TC-Weak permits bounded staleness and
// has none).
func TestObserverScheduleIndependent(t *testing.T) {
	forGoldenRows(t, "", func(t *testing.T, row goldenRow) {
		record := func(sched kernelSchedule) []check.Record {
			rec := check.NewRecorder()
			checkGoldenRow(t, row, runGoldenRow(t, row, func(c *sim.Config) { c.Observer = rec }, sched))
			return rec.Ops()
		}
		ops := record(eventSchedule)
		if len(ops) == 0 {
			t.Fatal("observer recorded no operations")
		}
		if ref := record(referenceSchedule(false)); !reflect.DeepEqual(ops, ref) {
			n := min(len(ops), len(ref))
			at := n
			for i := 0; i < n; i++ {
				if ops[i] != ref[i] {
					at = i
					break
				}
			}
			t.Errorf("operation sequences diverge at index %d of %d/%d", at, len(ops), len(ref))
		}
		cfg, _ := goldenConfig(row.config)
		var violations []check.Violation
		switch {
		case cfg.Mem.Protocol == memsys.GTSC:
			violations = check.CheckTimestampOrder(ops, 5)
		case cfg.Mem.Protocol != memsys.TC || cfg.SM.Consistency == gpu.SC:
			violations = check.CheckPhysical(ops, 5)
		}
		for _, v := range violations {
			t.Errorf("ordering violation: %v", v.Error())
		}
	})
}
