package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/gtsc-sim/gtsc/internal/workload"
)

// AblationVisibility evaluates the two update-visibility designs of
// §V-A: option 1 (delay readers of a locked line until the store
// acknowledges — the paper's choice) against option 2 (keep the old
// copy readable during the store). The paper found option 1's overhead
// negligible, avoiding option 2's extra storage.
type AblationVisibility struct {
	Workloads []string
	Option1   map[string]uint64 // cycles, delay-readers (default)
	Option2   map[string]uint64 // cycles, keep-old-copy
	// Option2Speedup is the geomean cycles(opt1)/cycles(opt2)
	// (paper: ~1.0 — negligible difference).
	Option2Speedup float64
}

// RunAblationVisibility executes the comparison over the coherence set
// under G-TSC-RC.
func (s *Session) RunAblationVisibility() (*AblationVisibility, error) {
	out := &AblationVisibility{
		Workloads: names(workload.CoherenceSet()),
		Option1:   map[string]uint64{},
		Option2:   map[string]uint64{},
	}
	if err := s.prewarmGrid(workload.CoherenceSet(), vGTSCRC,
		variant{proto: vGTSCRC.proto, cons: vGTSCRC.cons, oldCopy: true}); err != nil {
		return nil, err
	}
	var ratios []float64
	for _, wl := range workload.CoherenceSet() {
		o1, err := s.run(wl, vGTSCRC)
		if err != nil {
			return nil, err
		}
		o2, err := s.run(wl, variant{proto: vGTSCRC.proto, cons: vGTSCRC.cons, oldCopy: true})
		if err != nil {
			return nil, err
		}
		out.Option1[wl.Name] = o1.Cycles
		out.Option2[wl.Name] = o2.Cycles
		ratios = append(ratios, float64(o1.Cycles)/float64(o2.Cycles))
	}
	out.Option2Speedup = geomean(ratios)
	return out, nil
}

// Print renders the ablation.
func (r *AblationVisibility) Print(w io.Writer) {
	fmt.Fprintln(w, "SecV-A ablation: update visibility — option 1 (delay readers) vs option 2 (old copy)")
	t := newTable(w)
	t.row("Benchmark", "opt1 cycles", "opt2 cycles", "opt1/opt2")
	for _, n := range r.Workloads {
		t.row(n,
			fmt.Sprintf("%d", r.Option1[n]),
			fmt.Sprintf("%d", r.Option2[n]),
			fmt.Sprintf("%.3f", float64(r.Option1[n])/float64(r.Option2[n])))
	}
	t.flush()
	fmt.Fprintf(w, "geomean opt1/opt2 = %.3f (paper: negligible difference; option 1 avoids the extra storage)\n",
		r.Option2Speedup)
}

// AblationCombining evaluates §V-B: merging same-block reads in the
// MSHR (the paper's choice) against forwarding every request to L2.
// The paper reports forwarding increases memory requests by 12–35%.
type AblationCombining struct {
	Workloads []string
	// Requests/flits with combining (default) and with forward-all.
	CombineMsgs  map[string]uint64
	ForwardMsgs  map[string]uint64
	CombineFlits map[string]uint64
	ForwardFlits map[string]uint64
	// MsgIncrease is the geomean relative increase in L1->L2 requests
	// from forwarding (paper: 12-35%).
	MsgIncrease float64
}

// RunAblationCombining executes the comparison over the coherence set
// under G-TSC-RC.
func (s *Session) RunAblationCombining() (*AblationCombining, error) {
	out := &AblationCombining{
		Workloads:    names(workload.CoherenceSet()),
		CombineMsgs:  map[string]uint64{},
		ForwardMsgs:  map[string]uint64{},
		CombineFlits: map[string]uint64{},
		ForwardFlits: map[string]uint64{},
	}
	if err := s.prewarmGrid(workload.CoherenceSet(), vGTSCRC,
		variant{proto: vGTSCRC.proto, cons: vGTSCRC.cons, forwardAll: true}); err != nil {
		return nil, err
	}
	var ratios []float64
	for _, wl := range workload.CoherenceSet() {
		c, err := s.run(wl, vGTSCRC)
		if err != nil {
			return nil, err
		}
		f, err := s.run(wl, variant{proto: vGTSCRC.proto, cons: vGTSCRC.cons, forwardAll: true})
		if err != nil {
			return nil, err
		}
		out.CombineMsgs[wl.Name] = c.NoC.MsgsToL2
		out.ForwardMsgs[wl.Name] = f.NoC.MsgsToL2
		out.CombineFlits[wl.Name] = c.NoC.TotalFlits()
		out.ForwardFlits[wl.Name] = f.NoC.TotalFlits()
		ratios = append(ratios, float64(f.NoC.MsgsToL2)/float64(c.NoC.MsgsToL2))
	}
	out.MsgIncrease = geomean(ratios) - 1
	return out, nil
}

// Print renders the ablation.
func (r *AblationCombining) Print(w io.Writer) {
	fmt.Fprintln(w, "SecV-B ablation: MSHR request combining vs forwarding all reads to L2")
	t := newTable(w)
	t.row("Benchmark", "combine msgs", "forward msgs", "increase", "combine flits", "forward flits")
	for _, n := range r.Workloads {
		inc := float64(r.ForwardMsgs[n])/float64(r.CombineMsgs[n]) - 1
		t.row(n,
			fmt.Sprintf("%d", r.CombineMsgs[n]),
			fmt.Sprintf("%d", r.ForwardMsgs[n]),
			fmt.Sprintf("%+.0f%%", 100*inc),
			fmt.Sprintf("%d", r.CombineFlits[n]),
			fmt.Sprintf("%d", r.ForwardFlits[n]))
	}
	t.flush()
	fmt.Fprintf(w, "geomean request increase from forward-all: %.0f%% (paper: 12-35%%)\n", 100*r.MsgIncrease)
}

// driver is one named experiment of the suite.
type driver struct {
	name string
	run  func() (interface{ Print(io.Writer) }, error)
}

// drivers lists every experiment in RunAll order; RunOne looks names
// up here.
func (s *Session) drivers() []driver {
	return []driver{
		{"table2", func() (interface{ Print(io.Writer) }, error) { return s.RunTableII() }},
		{"fig12", func() (interface{ Print(io.Writer) }, error) { return s.RunFig12() }},
		{"fig13", func() (interface{ Print(io.Writer) }, error) { return s.RunFig13() }},
		{"fig14", func() (interface{ Print(io.Writer) }, error) { return s.RunFig14() }},
		{"fig15", func() (interface{ Print(io.Writer) }, error) { return s.RunFig15() }},
		{"fig16", func() (interface{ Print(io.Writer) }, error) { return s.RunFig16() }},
		{"fig17", func() (interface{ Print(io.Writer) }, error) { return s.RunFig17() }},
		{"expiry", func() (interface{ Print(io.Writer) }, error) { return s.RunExpiryMiss() }},
		{"vis", func() (interface{ Print(io.Writer) }, error) { return s.RunAblationVisibility() }},
		{"combine", func() (interface{ Print(io.Writer) }, error) { return s.RunAblationCombining() }},
		{"lease", func() (interface{ Print(io.Writer) }, error) { return s.RunAblationLease() }},
		{"tso", func() (interface{ Print(io.Writer) }, error) { return s.RunConsistencySpectrum() }},
		{"scale", func() (interface{ Print(io.Writer) }, error) { return s.RunScalability() }},
		{"micro", func() (interface{ Print(io.Writer) }, error) { return s.RunMicroTable() }},
		{"platform", func() (interface{ Print(io.Writer) }, error) { return s.RunPlatform() }},
		{"cache", func() (interface{ Print(io.Writer) }, error) { return s.RunCacheSweep() }},
		{"dir", func() (interface{ Print(io.Writer) }, error) { return s.RunDirectoryCompare() }},
	}
}

// RunAll executes every experiment and prints each in order — the
// cmd/gtscbench entry point.
func (s *Session) RunAll(w io.Writer) error {
	fmt.Fprintf(w, "G-TSC experiment suite (scale %d, %d SMs, %d L2 banks, G-TSC lease %d, TC lease %d)\n\n",
		s.Cfg.Scale, s.Cfg.NumSMs, s.Cfg.NumBanks, s.Cfg.GTSCLease, s.Cfg.TCLease)
	for _, d := range s.drivers() {
		res, err := d.run()
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		res.Print(w)
		fmt.Fprintln(w)
	}
	return nil
}

// RunOne executes a single named experiment ("table2", "fig12" ...
// "dir") and prints it.
func (s *Session) RunOne(name string, w io.Writer) error {
	var known []string
	for _, d := range s.drivers() {
		if d.name != name {
			known = append(known, d.name)
			continue
		}
		res, err := d.run()
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(known, ", "))
}
