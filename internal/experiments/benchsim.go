package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// BenchSim is the reproducible performance snapshot `make bench-sim`
// emits as BENCH_sim.json, tracking the perf trajectory of the
// simulator across PRs: the single-simulation cycle-loop cost and the
// Fig-12 grid wall time serial vs parallel.
type BenchSim struct {
	// Host context: parallel speedup is bounded by available CPUs.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	Workers    int `json:"workers"`

	// Single-simulation cycle-loop cost (BH under G-TSC/RC on the
	// benchmark machine), averaged over Iterations runs. The engine
	// breakdown shows where simulated cycles went: executed vs
	// fast-forwarded, run phase vs drain phase, and how many dispatches
	// the agenda actually performed.
	SingleSim struct {
		Workload      string  `json:"workload"`
		Protocol      string  `json:"protocol"`
		Iterations    int     `json:"iterations"`
		SimCycles     uint64  `json:"sim_cycles_per_run"`
		WallNsPerRun  int64   `json:"wall_ns_per_run"`
		NsPerSimCycle float64 `json:"ns_per_sim_cycle"`
		AllocsPerRun  uint64  `json:"allocs_per_run"`
		BytesPerRun   uint64  `json:"bytes_per_run"`

		// Engine cycle accounting.
		RunCyclesExecuted   uint64 `json:"run_cycles_executed"`
		RunCyclesSkipped    uint64 `json:"run_cycles_skipped"`
		DrainCyclesExecuted uint64 `json:"drain_cycles_executed"`
		DrainCyclesSkipped  uint64 `json:"drain_cycles_skipped"`
		SkippedCycles       uint64 `json:"skipped_cycles_total"`

		// Scheduled-wake dispatch accounting: how much of the machine
		// the agenda actually evaluated. Dispatches = one hierarchy
		// dispatch per executed cycle + one per awake-SM tick;
		// SMSleepCycles counts SM-cycles bulk-applied while an SM slept
		// through executed machine cycles (the per-SM analogue of the
		// skip counters above).
		SkipWindows   uint64  `json:"skip_windows"`
		MeanSkipWidth float64 `json:"mean_skip_width"`
		Dispatches    uint64  `json:"event_dispatches"`
		SMTicks       uint64  `json:"sm_ticks"`
		SMSleepCycles uint64  `json:"sm_sleep_cycles"`
		SMWakes       uint64  `json:"sm_wakes"`

		// Per-component hierarchy dispatch: of the cycles executed, how
		// many per-cycle component Ticks each class received vs slept
		// through. ticks + sleeps = executed cycles * class size. The
		// sleep fraction is the share of hierarchy component-cycles
		// never evaluated.
		NoCTicks               uint64  `json:"noc_ticks"`
		NoCSleeps              uint64  `json:"noc_sleeps"`
		DRAMTicks              uint64  `json:"dram_ticks"`
		DRAMSleeps             uint64  `json:"dram_sleeps"`
		L2Ticks                uint64  `json:"l2_ticks"`
		L2Sleeps               uint64  `json:"l2_sleeps"`
		L1Ticks                uint64  `json:"l1_ticks"`
		L1Sleeps               uint64  `json:"l1_sleeps"`
		HierarchySleepFraction float64 `json:"hierarchy_sleep_fraction"`
	} `json:"single_sim"`

	// Fig-12 grid wall time: same grid, Workers=1 vs Workers=N, plus
	// the bit-identity check between the two result sets.
	Fig12Grid struct {
		Simulations  int     `json:"simulations"`
		SerialNs     int64   `json:"serial_wall_ns"`
		ParallelNs   int64   `json:"parallel_wall_ns"`
		Speedup      float64 `json:"speedup"`
		BitIdentical bool    `json:"bit_identical"`
	} `json:"fig12_grid"`

	// Relaxed-sync bounded-slack execution (Config.Slack) on the same
	// Fig-12 grid vs the exact serial event engine, with the
	// per-workload cycle-count deviation the slack introduces.
	// Functional identity of every relaxed run is enforced inside the
	// measurement itself: each simulation verifies its workload's final
	// memory word-for-word against the sequential reference before
	// returning, so a functional divergence fails the bench rather than
	// skewing it.
	RelaxedSync struct {
		SlackCycles uint64  `json:"slack_cycles"`
		Rounds      int     `json:"rounds"`
		Simulations int     `json:"simulations"`
		ExactNs     int64   `json:"exact_wall_ns"`
		RelaxedNs   int64   `json:"relaxed_wall_ns"`
		Speedup     float64 `json:"speedup_vs_serial_event_engine"`

		// Cycle-count deviation of the relaxed grid vs the exact grid,
		// per workload (aggregated across that workload's protocol and
		// consistency variants) and overall.
		MeanAbsCycleDeviationPct float64            `json:"mean_abs_cycle_deviation_pct"`
		MaxAbsCycleDeviationPct  float64            `json:"max_abs_cycle_deviation_pct"`
		Workloads                []RelaxedDeviation `json:"workload_cycle_deviation"`

		// Epoch and exchange accounting from a representative single
		// simulation (the single-sim workload under the slack above).
		// DomainEpochs[i] counts epochs in which domain i did real work:
		// entries 0..numSMs-1 are the SM domains, the last entry is the
		// shared mem side (L2 banks + DRAM partitions, ticked inside the
		// barrier exchange).
		Epochs           uint64   `json:"epochs"`
		SMDomainCycles   uint64   `json:"sm_domain_cycles"`
		SMDomainSkipped  uint64   `json:"sm_domain_skipped"`
		MemDomainCycles  uint64   `json:"mem_domain_cycles"`
		MemDomainSkipped uint64   `json:"mem_domain_skipped"`
		ExchangedMsgs    uint64   `json:"exchanged_msgs"`
		HeldMsgs         uint64   `json:"held_msgs"`
		DomainEpochs     []uint64 `json:"domain_epochs"`
	} `json:"relaxed_sync"`
}

// RelaxedDeviation aggregates the relaxed-vs-exact cycle-count
// deviation of one workload across every Fig-12 grid variant it runs
// under.
type RelaxedDeviation struct {
	Workload   string  `json:"workload"`
	Cells      int     `json:"cells"`
	MeanAbsPct float64 `json:"mean_abs_cycle_deviation_pct"`
	MaxAbsPct  float64 `json:"max_abs_cycle_deviation_pct"`
}

// RunBenchSim executes the benchmark harness: cfg sets the machine
// (tests/CI use a small one), workers the parallel session worker
// count for the Fig-12 grid comparison.
func RunBenchSim(cfg Config, workers int) (*BenchSim, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := &BenchSim{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
	}

	// Single-sim cycle loop: BH under G-TSC/RC. A warmup run records
	// the engine counters; allocation deltas bracket each timed run
	// (the runs are strictly sequential, so the deltas are
	// attributable).
	var wl *workload.Workload
	for _, w := range workload.All() {
		if w.Name == "BH" {
			wl = w
		}
	}
	simCfg := sim.DefaultConfig()
	simCfg.Mem.Protocol = memsys.GTSC
	simCfg.Mem.NumSMs = cfg.NumSMs
	simCfg.Mem.NumBanks = cfg.NumBanks
	warmSim := sim.New(simCfg)
	warm, err := wl.Build(cfg.Scale).RunOn(warmSim)
	if err != nil {
		return nil, err
	}
	warmEng := *warmSim.Engine()

	const iters = 5
	var ms0, ms1 runtime.MemStats
	var wall time.Duration
	var allocs, bytes uint64
	runtime.GC()
	for i := 0; i < iters; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if _, err := wl.Build(cfg.Scale).Run(simCfg); err != nil {
			return nil, err
		}
		wall += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	ss := &out.SingleSim
	ss.Workload = wl.Name
	ss.Protocol = "G-TSC/RC"
	ss.Iterations = iters
	ss.SimCycles = warm.Cycles
	ss.WallNsPerRun = wall.Nanoseconds() / iters
	ss.NsPerSimCycle = float64(ss.WallNsPerRun) / float64(warm.Cycles)
	ss.AllocsPerRun = allocs / iters
	ss.BytesPerRun = bytes / iters
	ss.RunCyclesExecuted = warmEng.RunCycles
	ss.RunCyclesSkipped = warmEng.RunSkipped
	ss.DrainCyclesExecuted = warmEng.DrainCycles
	ss.DrainCyclesSkipped = warmEng.DrainSkipped
	ss.SkippedCycles = warmEng.SkippedCycles()
	ss.SkipWindows = warmEng.SkipWindows
	ss.MeanSkipWidth = warmEng.MeanSkipWidth()
	ss.Dispatches = warmEng.Dispatches()
	ss.SMTicks = warmEng.SMTicks
	ss.SMSleepCycles = warmEng.SMSleepCycles
	ss.SMWakes = warmEng.SMWakes
	ss.NoCTicks = warmEng.Comp.NoCTicks
	ss.NoCSleeps = warmEng.Comp.NoCSleeps
	ss.DRAMTicks = warmEng.Comp.DRAMTicks
	ss.DRAMSleeps = warmEng.Comp.DRAMSleeps
	ss.L2Ticks = warmEng.Comp.L2Ticks
	ss.L2Sleeps = warmEng.Comp.L2Sleeps
	ss.L1Ticks = warmEng.Comp.L1Ticks
	ss.L1Sleeps = warmEng.Comp.L1Sleeps
	if total := warmEng.Comp.HierarchyTicks() + warmEng.Comp.HierarchySleeps(); total > 0 {
		ss.HierarchySleepFraction = float64(warmEng.Comp.HierarchySleeps()) / float64(total)
	}

	// Fig-12 grid: serial then parallel, fresh sessions so neither
	// benefits from the other's cache, then bit-identity.
	serialCfg := cfg
	serialCfg.Workers = 1
	serial := NewSession(serialCfg)
	t0 := time.Now()
	if _, err := serial.RunFig12(); err != nil {
		return nil, err
	}
	serialNs := time.Since(t0).Nanoseconds()

	parCfg := cfg
	parCfg.Workers = workers
	par := NewSession(parCfg)
	t0 = time.Now()
	if _, err := par.RunFig12(); err != nil {
		return nil, err
	}
	parallelNs := time.Since(t0).Nanoseconds()

	g := &out.Fig12Grid
	g.Simulations = len(serial.CachedRuns())
	g.SerialNs = serialNs
	g.ParallelNs = parallelNs
	g.Speedup = float64(serialNs) / float64(parallelNs)
	g.BitIdentical = reflect.DeepEqual(serial.CachedRuns(), par.CachedRuns())

	// Relaxed-sync grid: the bounded-slack epoch engine vs the exact
	// serial event engine on the same Fig-12 grid. Both sides run
	// Workers=1 sessions (one simulation at a time) so the comparison
	// isolates the engine, not session-level fan-out, and the rounds
	// are interleaved for the same load-drift reason as the single-sim
	// section (fresh sessions each round — the result cache would
	// otherwise turn later rounds into no-ops). Slack 32 sits at the knee of the slack sweep: with the
	// delivery-horizon barrier pull-in the mean cycle deviation stays
	// under ~5%, epoch barriers are amortized enough that doubling the
	// slack again buys almost nothing, and past the NoC round-trip
	// latency (~64 cycles) deviation inflates sharply because round
	// trips that start and finish inside one window are invisible to
	// the pull-in horizon.
	const relaxSlack = 32
	const relaxRounds = 3
	exactCfg := cfg
	exactCfg.Workers = 1
	exactCfg.Slack = 0
	relaxCfg := cfg
	relaxCfg.Workers = 1
	relaxCfg.Slack = relaxSlack

	var exactWall, relaxWall time.Duration
	var exactRuns, relaxRuns map[string]*stats.Run
	for i := 0; i < relaxRounds; i++ {
		es := NewSession(exactCfg)
		t0 = time.Now()
		if _, err := es.RunFig12(); err != nil {
			return nil, err
		}
		exactWall += time.Since(t0)
		rs := NewSession(relaxCfg)
		t0 = time.Now()
		if _, err := rs.RunFig12(); err != nil {
			return nil, err
		}
		relaxWall += time.Since(t0)
		exactRuns, relaxRuns = es.CachedRuns(), rs.CachedRuns()
	}

	rx := &out.RelaxedSync
	rx.SlackCycles = relaxSlack
	rx.Rounds = relaxRounds
	rx.Simulations = len(relaxRuns)
	rx.ExactNs = exactWall.Nanoseconds() / relaxRounds
	rx.RelaxedNs = relaxWall.Nanoseconds() / relaxRounds
	rx.Speedup = float64(exactWall) / float64(relaxWall)

	// Join the two result sets on (workload, variant): the cache key's
	// final component is the slack, so stripping it aligns the sides.
	trim := func(runs map[string]*stats.Run) map[string]*stats.Run {
		m := make(map[string]*stats.Run, len(runs))
		for k, r := range runs {
			m[k[:strings.LastIndexByte(k, '/')]] = r
		}
		return m
	}
	exactBy, relaxBy := trim(exactRuns), trim(relaxRuns)
	per := map[string]*RelaxedDeviation{}
	var devSum float64
	var devCells int
	for k, er := range exactBy {
		rr, ok := relaxBy[k]
		if !ok || er.Cycles == 0 {
			continue
		}
		pct := 100 * (float64(rr.Cycles) - float64(er.Cycles)) / float64(er.Cycles)
		if pct < 0 {
			pct = -pct
		}
		name := k[:strings.IndexByte(k, '/')]
		d := per[name]
		if d == nil {
			d = &RelaxedDeviation{Workload: name}
			per[name] = d
		}
		d.Cells++
		d.MeanAbsPct += pct // running sum; divided by Cells below
		if pct > d.MaxAbsPct {
			d.MaxAbsPct = pct
		}
		devSum += pct
		devCells++
	}
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := per[name]
		d.MeanAbsPct /= float64(d.Cells)
		if d.MaxAbsPct > rx.MaxAbsCycleDeviationPct {
			rx.MaxAbsCycleDeviationPct = d.MaxAbsPct
		}
		rx.Workloads = append(rx.Workloads, *d)
	}
	if devCells > 0 {
		rx.MeanAbsCycleDeviationPct = devSum / float64(devCells)
	}

	// Epoch and exchange accounting from a representative single
	// simulation: the single-sim workload on the relaxed engine.
	rxCfg := simCfg
	rxCfg.SlackCycles = relaxSlack
	rxSim := sim.New(rxCfg)
	if _, err := wl.Build(cfg.Scale).RunOn(rxSim); err != nil {
		return nil, err
	}
	rst := rxSim.Engine().Relaxed
	rx.Epochs = rst.Epochs
	rx.SMDomainCycles = rst.SMDomainCycles
	rx.SMDomainSkipped = rst.SMDomainSkipped
	rx.MemDomainCycles = rst.MemDomainCycles
	rx.MemDomainSkipped = rst.MemDomainSkipped
	rx.ExchangedMsgs = rst.ExchangedMsgs
	rx.HeldMsgs = rst.HeldMsgs
	rx.DomainEpochs = rst.DomainEpochs
	return out, nil
}

// WriteJSON writes the snapshot to path, indented for diffability.
func (b *BenchSim) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
