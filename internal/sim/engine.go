package sim

import "github.com/gtsc-sim/gtsc/internal/memsys"

// EngineStats counts what the cycle ENGINE did, as opposed to what the
// simulated machine did: how many cycles were actually executed vs
// fast-forwarded by quiescence skipping, and how many SM and component
// ticks the agenda dispatched. These are scheduling observability
// counters — they deliberately live outside stats.Run, whose exact
// rendering is pinned by the 96 golden fingerprints, and outside the
// checkpoint digests, because the same simulation reaches the same
// machine state however the engine scheduled it.
type EngineStats struct {
	// RunCycles / DrainCycles count cycles the engine executed with a
	// real tick; RunSkipped / DrainSkipped count cycles bulk-applied by
	// quiescence skipping. Executed + skipped = simulated cycles.
	RunCycles    uint64
	RunSkipped   uint64
	DrainCycles  uint64
	DrainSkipped uint64

	// SkipWindows counts fast-forward events (each covers >= 1 cycle).
	SkipWindows uint64

	// SMTicks counts individual SM tick dispatches. Sleeping SMs are
	// not ticked, so on stall-heavy workloads this is far below
	// RunCycles * numSMs.
	SMTicks uint64
	// SMSleepCycles counts SM-cycles bulk-applied lazily while an SM
	// slept through executed machine cycles (the per-SM analogue of
	// RunSkipped, which only counts whole-machine skips).
	SMSleepCycles uint64
	// SMWakes counts sleep -> awake transitions (including the forced
	// flushes at phase boundaries and pause points).
	SMWakes uint64

	// Comp breaks the hierarchy side of executed cycles down per
	// component class: for the NoC, DRAM partitions, L2 banks, and
	// L1s, how many per-cycle Ticks were dispatched vs slept through
	// (the hierarchy analogue of SMTicks/SMSleepCycles). All zero under
	// fault injection, where the hierarchy is ticked wholesale.
	Comp memsys.DispatchStats
}

// Dispatches is the total number of event dispatches the engine
// performed: one hierarchy dispatch per executed cycle plus one per SM
// tick.
func (e *EngineStats) Dispatches() uint64 { return e.RunCycles + e.DrainCycles + e.SMTicks }

// MeanSkipWidth is the average number of cycles a machine-level
// fast-forward jumped over (0 when no window was skipped).
func (e *EngineStats) MeanSkipWidth() float64 {
	if e.SkipWindows == 0 {
		return 0
	}
	return float64(e.SkippedCycles()) / float64(e.SkipWindows)
}

// SkippedCycles is the total number of simulated cycles that were
// never executed: the machine's clock jumped over them because every
// component was provably quiescent.
func (e *EngineStats) SkippedCycles() uint64 { return e.RunSkipped + e.DrainSkipped }

// Engine returns the engine's scheduling counters, accumulated across
// every kernel this simulator has run.
func (s *Simulator) Engine() *EngineStats { return &s.eng }
