package dir

import (
	"fmt"
	"io"
	"sort"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// DigestState implements coherence.StateDigester for a directory L1.
func (l *L1) DigestState(w io.Writer) {
	fmt.Fprintf(w, "dir-l1[%d] now=%d next=%d pend=%d\n", l.smID, l.now, l.nextReqID, l.pending)
	l.array.DigestInto(w)
	l.mshr.DigestInto(w)
	mem.DigestMsgs(w, "outq", l.outQ.Items())
	// Outstanding GetMs: the queued stores are callback carriers, so
	// digest the block and the waiting-store count.
	mem.DigestBlockMap(w, l.getm, func(w io.Writer, b mem.BlockAddr, p *pendingM) {
		fmt.Fprintf(w, "getm %#x n=%d\n", uint64(b), len(p.stores))
	})
	mem.DigestBlockMap(w, l.wbInFlight, func(w io.Writer, b mem.BlockAddr, v bool) {
		fmt.Fprintf(w, "wb %#x %t\n", uint64(b), v)
	})
	mem.DigestIDTable(w, "atom", l.atomics)
}

// DigestState implements coherence.StateDigester for a directory bank.
func (l *L2) DigestState(w io.Writer) {
	fmt.Fprintf(w, "dir-l2[%d] now=%d\n", l.bankID, l.now)
	l.array.DigestInto(w)
	mem.DigestBlockMap(w, l.miss, func(w io.Writer, b mem.BlockAddr, m *l2Miss) {
		fmt.Fprintf(w, "miss %#x", uint64(b))
		if m.data != nil {
			fmt.Fprintf(w, " d%x", m.data.Words)
		}
		io.WriteString(w, "\n")
		mem.DigestMsgs(w, "wait", m.waiting)
	})
	mem.DigestBlockMap(w, l.busy, func(w io.Writer, b mem.BlockAddr, bs *busyState) {
		fmt.Fprintf(w, "busy %#x", uint64(b))
		sms := make([]int, 0, len(bs.targets))
		for sm := range bs.targets {
			sms = append(sms, sm)
		}
		sort.Ints(sms)
		for _, sm := range sms {
			t := bs.targets[sm]
			fmt.Fprintf(w, " %d:%t/%t", sm, t.done, t.waitWB)
		}
		io.WriteString(w, "\n")
		if bs.grant != nil {
			io.WriteString(w, "grant ")
			bs.grant.DigestInto(w)
		}
		mem.DigestMsgs(w, "wait", bs.waiting)
	})
	mem.DigestMsgs(w, "inq", l.inQ.Items())
	mem.DigestMsgs(w, "outnoc", l.outNoC.Items())
	mem.DigestMsgs(w, "outdram", l.outDRAM.Items())
}
