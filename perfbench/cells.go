package main

import (
	"fmt"
	"hash/fnv"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// variant is one protocol/consistency configuration of the Fig-12 grid.
type variant struct {
	proto memsys.Protocol
	cons  gpu.Consistency
}

var (
	vBL     = variant{memsys.BL, gpu.RC}
	vGTSCRC = variant{memsys.GTSC, gpu.RC}
	vGTSCSC = variant{memsys.GTSC, gpu.SC}
	vTCRC   = variant{memsys.TC, gpu.RC}
	vTCSC   = variant{memsys.TC, gpu.SC}
	vL1NC   = variant{memsys.L1NC, gpu.RC}
)

// machine is the simulated machine geometry.
type machine struct{ sms, banks int }

// paperMachine is the paper's 16-SM, 8-bank machine (§VI-A).
var paperMachine = machine{sms: 16, banks: 8}

// cell is one simulation: a workload at a scale under one variant.
type cell struct {
	wl    *workload.Workload
	v     variant
	scale int
	m     machine
}

// config mirrors the sim.Config that experiments.Session builds for a
// variant under its default Config (leases 10 and 400, 500M-cycle
// budget). The traced grid rebuilds the session's cells through this;
// the fingerprint check against the session's own runs catches drift.
func (c cell) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = c.v.proto
	cfg.Mem.NumSMs = c.m.sms
	cfg.Mem.NumBanks = c.m.banks
	cfg.SM.Consistency = c.v.cons
	cfg.MaxCycles = 500_000_000
	cfg.Mem.GTSC.Lease = 10
	cfg.Mem.TC.Lease = 400
	return cfg
}

// layer names the program package that implements the cell's
// coherence controllers.
func (c cell) layer() string {
	switch c.v.proto {
	case memsys.GTSC:
		return "core"
	case memsys.TC:
		return "tc"
	default:
		return "nocoh"
	}
}

// fig12Cells lists the 66 Fig-12 cells in experiments.Session.RunFig12's
// job order: all twelve workloads under BL, G-TSC RC/SC and TC RC/SC,
// then the non-coherence set under the non-coherent L1.
func fig12Cells(scale int, m machine) []cell {
	var cells []cell
	for _, wl := range workload.All() {
		for _, v := range []variant{vBL, vGTSCRC, vGTSCSC, vTCRC, vTCSC} {
			cells = append(cells, cell{wl, v, scale, m})
		}
	}
	for _, wl := range workload.NonCoherenceSet() {
		cells = append(cells, cell{wl, vL1NC, scale, m})
	}
	return cells
}

// runName identifies a simulation by its own stats: kernel (the
// workload's name), protocol and consistency, e.g. "CC/G-TSC/RC". It is
// unique across the Fig-12 grid.
func runName(r *stats.Run) string {
	return fmt.Sprintf("%s/%s/%s", r.Kernel, r.Protocol, r.Consistency)
}

// fingerprint is FNV-1a over the %+v rendering of a stats.Run, the
// scheme of the internal/sim golden fingerprints.
func fingerprint(r *stats.Run) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	return fmt.Sprintf("%#016x", h.Sum64())
}
