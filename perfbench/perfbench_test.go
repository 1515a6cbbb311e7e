package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
)

// smallMachine keeps the identity test fast: scale 1 on 4 SMs, 4 banks.
var smallMachine = machine{sms: 4, banks: 4}

// TestTracedMatchesPlain runs every Fig-12 cell (all five Fig-12
// configurations plus the BL baseline) on a small machine plainly and
// through the traced phase's worker pool: the wrappers must not change
// any result.
func TestTracedMatchesPlain(t *testing.T) {
	cells := fig12Cells(1, smallMachine)
	traced, err := traceRep(cells, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		inst, s, _, _, err := build(c)
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := execute(inst, s)
		if err != nil {
			t.Fatalf("%s: %v", c.wl.Name, err)
		}
		tc := traced.cells[i]
		if tc.err != nil {
			t.Fatalf("%s traced: %v", c.wl.Name, tc.err)
		}
		name := runName(plain)
		if got, want := fingerprint(tc.run), fingerprint(plain); got != want {
			t.Errorf("%s: traced fingerprint %s, plain %s", name, got, want)
		}
		if tc.sp.calls[l1Access] == 0 || tc.sp.calls[l2Deliver] == 0 || tc.sp.calls[smComplete] == 0 {
			t.Errorf("%s: spans recorded no calls: %+v", name, tc.sp.calls)
		}
	}
}

func TestLayerOf(t *testing.T) {
	const p = programPrefix
	for _, tt := range []struct {
		stack []string
		want  string
	}{
		{[]string{"slices.pdqsortCmpFunc", "slices.SortFunc", p + "tc.(*L2).resumeBlocked", p + "tc.(*L2).Tick"}, "tc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", p + "tc.(*L1).send"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "unattributed"},
		{[]string{"time.now", "main.(*tracedL1).Access", p + "gpu.(*SM).dispatchAccess"}, "trace"},
		{[]string{"time.now", benchPrefix + "(*tracedL1).Access", p + "gpu.(*SM).dispatchAccess"}, "trace"},
		{[]string{p + "workload.CC.func1", p + "gpu.(*SM).issue"}, "workload"},
		{[]string{p + "workload.ccReference", p + "workload.CC.func2", "main.build"}, "workload-ref"},
		{[]string{p + "stats.(*Run).Accumulate", "main.execute"}, "other"},
		{[]string{p + "noc.(*Network).Tick", p + "memsys.(*System).TickDue"}, "noc"},
	} {
		if got := layerOf(tt.stack); got != tt.want {
			t.Errorf("layerOf(%v) = %s, want %s", tt.stack, got, tt.want)
		}
	}
}

// TestAttributionPartitions profiles a traced run and checks that every
// sample lands in exactly one known layer.
func TestAttributionPartitions(t *testing.T) {
	var buf bytes.Buffer
	if err := startProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range fig12Cells(1, smallMachine)[:10] {
		runTracedCell(c)
	}
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, summed int64
	for _, s := range stacks {
		total += s.count
	}
	for l, n := range byLayer {
		if !slices.Contains(layers, l) {
			t.Errorf("sample attributed to unknown layer %q", l)
		}
		summed += n
	}
	if total == 0 || summed != total {
		t.Errorf("layers hold %d samples, profile has %d", summed, total)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// workloads and metrics the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range benchWorkloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for name, unit := range endToEndUnits {
		if e2e[name] != unit {
			t.Errorf("end_to_end %s: unit %q, benchmark reports %q", name, e2e[name], unit)
		}
	}
	if len(e2e) != len(endToEndUnits) {
		t.Errorf("end_to_end lists %d metrics, benchmark reports %d", len(e2e), len(endToEndUnits))
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("per_layer lists %d metrics, benchmark reports %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
