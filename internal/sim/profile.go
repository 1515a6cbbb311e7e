// pprof phase attribution for the cycle engine.
//
// A CPU profile of a simulation is dominated by three interleaved
// activities — the memory-hierarchy tick, the SM tick, and the engine's
// own scheduling work (agenda queries, wake refreshes, quiescence
// probes, watchdog sampling). They inline into each other enough that
// separating them by stack frame needs manual bisection; goroutine
// labels split them directly: `go tool pprof -tagfocus
// engine_phase=hierarchy-tick` isolates one phase.
package sim

import (
	"context"
	"runtime/pprof"
)

// Engine phase label values (label key "engine_phase").
const (
	phaseLabelHierarchy = "hierarchy-tick"
	phaseLabelSM        = "sm-tick"
	phaseLabelAgenda    = "agenda"
)

// phaseLabels carries pre-built label contexts for the engine's hot
// phases. Building the contexts once per phase call keeps the per-cycle
// cost to a single SetGoroutineLabels store per transition — and, when
// Config.ProfileLabels is off (the default), to one predictable branch.
type phaseLabels struct {
	on        bool
	hierarchy context.Context
	smTick    context.Context
	agenda    context.Context
}

func (s *Simulator) newPhaseLabels() phaseLabels {
	pl := phaseLabels{on: s.Cfg.ProfileLabels}
	if !pl.on {
		return pl
	}
	base := context.Background()
	pl.hierarchy = pprof.WithLabels(base, pprof.Labels("engine_phase", phaseLabelHierarchy))
	pl.smTick = pprof.WithLabels(base, pprof.Labels("engine_phase", phaseLabelSM))
	pl.agenda = pprof.WithLabels(base, pprof.Labels("engine_phase", phaseLabelAgenda))
	return pl
}

// set switches the goroutine's labels to the given phase context.
func (pl *phaseLabels) set(ctx context.Context) {
	if pl.on {
		pprof.SetGoroutineLabels(ctx)
	}
}

// clear drops the labels on phase exit so code outside the cycle loop
// is not attributed to the last phase that ran.
func (pl *phaseLabels) clear() {
	if pl.on {
		pprof.SetGoroutineLabels(context.Background())
	}
}
