package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/experiments"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// expectedJSON holds the committed results: per benchmark workload, the
// scale they were taken at, the fingerprint of every simulation the
// workload runs, and for the grid the five Fig-12 headline ratios as
// results_paper_scale.txt prints them.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Scale  int               `json:"scale"`
	Runs   map[string]string `json:"runs"`
	Ratios map[string]string `json:"ratios,omitempty"`
}

func loadExpected() (map[string]expectation, error) {
	var e map[string]expectation
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// checker counts attempted and failed simulations. A simulation fails
// if it returns an error, panics, fails workload verification, or its
// fingerprint differs from the committed one (or, at a scale with no
// committed fingerprints, from its own earlier repetitions).
type checker struct {
	want      *expectation // nil: report fingerprints without checking
	attempted int
	failed    int
	bad       bool              // a non-simulation check failed (headline ratios)
	got       map[string]string // fingerprint per run name
	ratios    map[string]string // headline ratios of the last grid
	problems  []string
}

func newChecker(want *expectation) *checker {
	return &checker{want: want, got: map[string]string{}}
}

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts one simulation that could not produce a result.
func (c *checker) fail(what string, err error) {
	c.attempted++
	c.failed++
	c.problem("%s: %v", what, err)
}

// check counts one simulation and checks its result.
func (c *checker) check(r *stats.Run, err error) {
	if err != nil || r == nil {
		if err == nil {
			err = errors.New("no result")
		}
		c.fail("simulation", err)
		return
	}
	c.attempted++
	name, fp := runName(r), fingerprint(r)
	prev, seen := c.got[name]
	c.got[name] = fp
	switch {
	case seen && prev != fp:
		c.failed++
		c.problem("%s: fingerprint %s differs from an earlier repetition's %s", name, fp, prev)
	case c.want != nil && c.want.Runs[name] != fp:
		c.failed++
		c.problem("%s: fingerprint %s, committed %q", name, fp, c.want.Runs[name])
	}
}

// grid checks one Fig-12 grid of cells simulations: every cached run,
// the cells the session reports missing, and the headline ratios.
func (c *checker) grid(cells int, runs map[string]*stats.Run, missing []string, fig *experiments.Fig12, err error) {
	for _, r := range runs {
		c.check(r, nil)
	}
	for _, k := range missing {
		c.fail(k, errors.New("cell failed"))
	}
	for n := len(runs) + len(missing); n < cells; n++ {
		c.fail("fig12", errors.New("cell never ran"))
	}
	if err != nil {
		c.bad = true
		c.problem("RunFig12: %v", err)
	}
	if fig == nil {
		return
	}
	c.ratios = headlineRatios(fig)
	if c.want == nil {
		return
	}
	for k, v := range c.ratios {
		if c.want.Ratios[k] != v {
			c.bad = true
			c.problem("headline ratio %s = %s, committed %q", k, v, c.want.Ratios[k])
		}
	}
}

// paperRatios are the paper's Fig-12 headline values (§VI-B), beside
// which the simulator's are reported. They are not gated: the gap is
// the model's error against its reference.
var paperRatios = []struct{ name, paper string }{
	{"G-TSC-RC/TC-RC", "~1.38x"},
	{"G-TSC-SC/TC-RC", "~1.26x"},
	{"G-TSC-RC/TC-SC", "~1.84x"},
	{"G-TSC-RC/G-TSC-SC", "~1.12x"},
	{"G-TSC-RC-overhead-vs-L1NC", "~11%"},
}

// headlineRatios formats the five headline ratios as
// experiments.Fig12.Print does.
func headlineRatios(f *experiments.Fig12) map[string]string {
	return map[string]string{
		"G-TSC-RC/TC-RC":            fmt.Sprintf("%.2fx", f.GTSCRCoverTCRC),
		"G-TSC-SC/TC-RC":            fmt.Sprintf("%.2fx", f.GTSCSCoverTCRC),
		"G-TSC-RC/TC-SC":            fmt.Sprintf("%.2fx", f.GTSCRCoverTCSC),
		"G-TSC-RC/G-TSC-SC":         fmt.Sprintf("%.2fx", f.GTSCRCoverSC),
		"G-TSC-RC-overhead-vs-L1NC": fmt.Sprintf("%.0f%%", 100*f.GTSCvsL1NCOverhead),
	}
}

func (c *checker) correct() bool { return c.failed == 0 && !c.bad && c.attempted > 0 }

// report prints the fingerprints, the headline ratios and any problems.
func (c *checker) report(w io.Writer) {
	for _, n := range sortedKeys(c.got) {
		status := "unchecked (no committed fingerprints at this scale)"
		if c.want != nil {
			status = "ok"
			if c.want.Runs[n] != c.got[n] {
				status = fmt.Sprintf("MISMATCH, committed %q", c.want.Runs[n])
			}
		}
		fmt.Fprintf(w, "fingerprint %s %s %s\n", n, c.got[n], status)
	}
	for _, r := range paperRatios {
		if v, ok := c.ratios[r.name]; ok {
			fmt.Fprintf(w, "headline %s %s (paper %s)\n", r.name, v, r.paper)
		}
	}
	for _, p := range c.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	frac := 0.0
	if c.attempted > 0 {
		frac = float64(c.failed) / float64(c.attempted)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d simulations failed)\n", frac, c.failed, c.attempted)
}
