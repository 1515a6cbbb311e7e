// Command perfbench is the simulator's benchmark. It drives the program
// only through its public entry points (experiments.Session, workload
// builders, sim.New, Simulator.Run, Instance.Verify and the coherence
// controller interfaces) and measures one workload per invocation:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <n>]
//
// With --trace 0 it reports the end-to-end metrics, measured untraced;
// with --trace 1 it runs the span-wrapped, CPU-profiled simulations and
// reports the per-layer metrics. Every simulation's result is checked
// against committed fingerprints. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// NOTES.md for the metric definitions and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/gtsc-sim/gtsc/internal/workload"
)

// benchWorkload is one benchmark workload: the Fig-12 grid, or a single
// simulation of one program workload under one variant.
type benchWorkload struct {
	name  string
	grid  bool
	wl    string  // program workload (single simulation only)
	v     variant // (single simulation only)
	scale int     // committed scale
	// setupReps is how many times set-up is measured; its median is
	// setup_s. A grid set-up builds all 66 cells, a single one builds one.
	setupReps int
}

var benchWorkloads = []benchWorkload{
	{name: "fig12-grid", grid: true, scale: 2, setupReps: 7},
	{name: "cc-gtsc", wl: "CC", v: vGTSCRC, scale: 32, setupReps: 21},
	{name: "stn-tc-sc", wl: "STN", v: vTCSC, scale: 48, setupReps: 21},
}

func (w benchWorkload) cells(scale int) []cell {
	if w.grid {
		return fig12Cells(scale, paperMachine)
	}
	wl, _ := workload.ByName(w.wl)
	return []cell{{wl, w.v, scale, paperMachine}}
}

// endToEndUnits are the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"wall_s":       "s",
	"setup_s":      "s",
	"ns_per_cycle": "ns/cycle",
	"peak_heap_mb": "MB",
}

// minReps is the fewest timed (or traced) repetitions a run makes, even
// when they overrun --seconds.
const minReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "benchmark workload: fig12-grid, cc-gtsc or stn-tc-sc")
	seed := fs.Int64("seed", 0, "run seed, recorded with the result; the workload builders fix their inputs by their own seeds")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	scale := fs.Int("scale", 0, "scale of a single-simulation workload (0: the committed size); at another scale fingerprints are reported, not checked")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *benchWorkload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown --workload %q", *name)
	case *seconds < 1:
		return errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	case *scale < 0, *scale != 0 && w.grid:
		return errors.New("--scale takes a positive size, for a single-simulation workload only")
	}
	expected, err := loadExpected()
	if err != nil {
		return err
	}
	sc := w.scale
	if *scale != 0 {
		sc = *scale
	}
	var want *expectation
	if e, ok := expected[w.name]; ok && e.Scale == sc {
		want = &e
	}
	chk := newChecker(want)
	cells := w.cells(sc)
	workers := runtime.NumCPU()

	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d scale=%d cells=%d workers=%d\n",
		w.name, *seed, *seconds, *trace, sc, len(cells), workers)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	var metrics map[string]metric
	if *trace == 0 {
		metrics = endToEnd(w, cells, workers, time.Duration(*seconds)*time.Second, chk, out)
	} else {
		metrics, err = traced(w, cells, workers, time.Duration(*seconds)*time.Second, chk, out)
		if err != nil {
			return err
		}
	}
	chk.report(out)
	return json.NewEncoder(out).Encode(result{
		Correct:   chk.correct(),
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	})
}

// oneRep runs one untraced timed phase of the workload.
func oneRep(w *benchWorkload, cells []cell, workers int, chk *checker) rep {
	if w.grid {
		return gridRep(cells, workers, chk)
	}
	return singleRep(cells[0], chk)
}

// endToEnd measures the end-to-end metrics: one warm-up phase, set-up
// repeated w.setupReps times, then timed phases until the budget is
// spent (at least minReps). Each metric is the median over the
// repetitions.
func endToEnd(w *benchWorkload, cells []cell, workers int, budget time.Duration, chk *checker, out io.Writer) map[string]metric {
	oneRep(w, cells, workers, chk) // warm-up: fills caches and lazy runtime state
	setups := make([]float64, w.setupReps)
	for i := range setups {
		setups[i] = setupTime(cells).Seconds()
	}
	var wall, nsPerCycle, heap []float64
	deadline := time.Now().Add(budget)
	for len(wall) < minReps || time.Now().Before(deadline) {
		r := oneRep(w, cells, workers, chk)
		wall = append(wall, r.wall.Seconds())
		nsPerCycle = append(nsPerCycle, float64(r.cpu.Nanoseconds())/float64(max(r.cycles, 1)))
		heap = append(heap, float64(r.peakHeap)/1e6)
	}
	samples := map[string][]float64{"wall_s": wall, "setup_s": setups, "ns_per_cycle": nsPerCycle, "peak_heap_mb": heap}
	m := map[string]metric{}
	for _, k := range sortedKeys(samples) {
		m[k] = metric{median(samples[k]), endToEndUnits[k]}
		q1, q3 := quartiles(samples[k])
		fmt.Fprintf(out, "metric %s %.6g %s (median of %d; q1 %.6g, q3 %.6g)\n", k, m[k].Value, m[k].Unit, len(samples[k]), q1, q3)
	}
	return m
}

// traced alternates untraced and traced phases until the budget is
// spent (at least minReps of each) and reduces them to the per-layer
// metrics.
func traced(w *benchWorkload, cells []cell, workers int, budget time.Duration, chk *checker, out io.Writer) (map[string]metric, error) {
	var (
		untraced []rep
		reps     []tracedRep
	)
	deadline := time.Now().Add(budget)
	for len(reps) < minReps || time.Now().Before(deadline) {
		untraced = append(untraced, oneRep(w, cells, workers, chk))
		r, err := traceRep(cells, workers, w.grid)
		if err != nil {
			return nil, err
		}
		r.check(chk)
		reps = append(reps, r)
	}
	vals, mismatched := perLayer(reps, untraced)
	for _, k := range mismatched {
		fmt.Fprintf(out, "flag count %s differs between repetitions of the same code\n", k)
	}
	m := map[string]metric{}
	for _, d := range perLayerMetrics {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", d.name)
		}
		m[d.name] = metric{v, d.unit}
	}
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "metric %s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// cpuModel reads the host's CPU model name for the host block.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
