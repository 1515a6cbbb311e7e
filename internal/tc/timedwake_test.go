package tc

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// bankRig drives one TC L2 bank on its own: requests are delivered by
// hand, DRAM reads are answered right after the tick that issued them,
// and every message the bank sends is rendered, with its cycle, into
// sent.
type bankRig struct {
	l2        *L2
	store     *mem.Store
	now       uint64
	dram      []*mem.Msg
	sent      bytes.Buffer
	rejectNoC bool
}

func newBankRig(cfg Config, geo L2Geometry) *bankRig {
	r := &bankRig{store: mem.NewStore()}
	logSend := func(m *mem.Msg) {
		fmt.Fprintf(&r.sent, "@%d ", r.now)
		m.DigestInto(&r.sent)
	}
	r.l2 = NewL2(cfg, 0, geo,
		coherence.SenderFunc(func(m *mem.Msg) bool {
			if r.rejectNoC {
				return false
			}
			logSend(m)
			return true
		}),
		coherence.SenderFunc(func(m *mem.Msg) bool { logSend(m); r.dram = append(r.dram, m); return true }),
		nil)
	return r
}

// tick runs the bank at cycle now, then serves its DRAM traffic.
func (r *bankRig) tick(now uint64) {
	r.now = now
	r.l2.Tick(now)
	for len(r.dram) > 0 {
		m := r.dram[0]
		r.dram = r.dram[1:]
		switch m.Type {
		case mem.DRAMRd:
			data := &mem.Block{}
			r.store.ReadBlock(m.Block, data)
			r.l2.DRAMFill(&mem.Msg{Type: mem.DRAMFill, Block: m.Block, Data: data})
		case mem.DRAMWr:
			r.store.WriteBlock(m.Block, m.Data, m.Mask)
		}
	}
}

// request delivers one message from SM src and ticks the next cycle.
func (r *bankRig) request(typ mem.MsgType, b mem.BlockAddr, src int, id uint64) {
	msg := &mem.Msg{Type: typ, Block: b, Src: src, Dst: 0, ReqID: id, Mask: mem.WordMask(0).Set(0)}
	if typ == mem.BusWr {
		msg.Data = &mem.Block{}
		msg.Data.Words[0] = uint32(id)
	}
	r.l2.Deliver(msg)
	r.tick(r.now + 1)
}

func (r *bankRig) digest() string {
	var buf bytes.Buffer
	r.l2.DigestState(&buf)
	return buf.String()
}

// parkedRig builds a TC-Strong bank with a one-set, two-way array in
// which a write to X is parked behind X's live lease and a fill of Z
// is stalled because both ways (Y, X) hold live leases. Y's lease
// expires one cycle before X's, so the fill wakes first and the write
// second.
func parkedRig() (r *bankRig, yExpiry, xExpiry uint64) {
	const lease = 50
	X, Y, Z := mem.BlockAddr(1), mem.BlockAddr(2), mem.BlockAddr(3)
	r = newBankRig(Config{Lease: lease}, L2Geometry{Sets: 1, Ways: 2})
	r.request(mem.BusRd, Y, 0, 1) // cycle 1: Y leased until 51
	r.request(mem.BusRd, X, 0, 2) // cycle 2: X leased until 52
	r.request(mem.BusWr, X, 1, 3) // cycle 3: write parks behind X's lease
	r.request(mem.BusRd, Z, 1, 4) // cycle 4: Z's fill finds no victim
	return r, 1 + lease, 2 + lease
}

// TestTimedWakeMatchesPerCycleTicks is the differential check behind
// TC banks sleeping through lease windows: a bank ticked on every cycle
// and a bank that jumps from wake to wake with SyncClock must agree on
// stats, state and every message sent, at each wake.
func TestTimedWakeMatchesPerCycleTicks(t *testing.T) {
	ticked, _, _ := parkedRig()
	woken, yExpiry, xExpiry := parkedRig()
	if len(woken.l2.blocked) != 1 || woken.l2.stalledFills != 1 {
		t.Fatalf("rig not parked: %d blocked queues, %d stalled fills", len(woken.l2.blocked), woken.l2.stalledFills)
	}

	var wakes []uint64
	for woken.now < xExpiry+5 {
		next := woken.now + 1
		if at, ok := woken.l2.TimedWake(woken.now); ok {
			wakes = append(wakes, at)
			next = at
			woken.l2.SyncClock(at - 1)
		}
		woken.tick(next)
		for ticked.now < next {
			ticked.tick(ticked.now + 1)
		}
		if *ticked.l2.Stats() != *woken.l2.Stats() {
			t.Fatalf("cycle %d: stats diverged\nticked %+v\nwoken  %+v", next, *ticked.l2.Stats(), *woken.l2.Stats())
		}
		if ticked.digest() != woken.digest() {
			t.Fatalf("cycle %d: state diverged\nticked:\n%s\nwoken:\n%s", next, ticked.digest(), woken.digest())
		}
		if ticked.sent.String() != woken.sent.String() {
			t.Fatalf("cycle %d: sent messages diverged\nticked:\n%s\nwoken:\n%s", next, ticked.sent.String(), woken.sent.String())
		}
	}
	if len(wakes) != 2 || wakes[0] != yExpiry || wakes[1] != xExpiry {
		t.Errorf("timed wakes = %v, want [%d %d] (the fill's victim, then the write's lease)", wakes, yExpiry, xExpiry)
	}
	st := woken.l2.Stats()
	if st.WriteStalls == 0 || st.EvictStalls == 0 {
		t.Errorf("stall cycles not counted: %+v", *st)
	}
	if !woken.l2.Quiescent() {
		t.Error("bank still busy after both expiries")
	}
}

// TestTimedWakeRefusesMessageWork: a bank with queued input or pending
// output, or with the write-stall mutation armed, must not claim a
// timed wake, and neither must a bank with nothing to wait for.
func TestTimedWakeRefusesMessageWork(t *testing.T) {
	r, _, _ := parkedRig()
	if _, ok := r.l2.TimedWake(r.now); !ok {
		t.Fatal("parked bank claimed no timed wake")
	}

	r.l2.Deliver(&mem.Msg{Type: mem.BusRd, Block: 2, Src: 0, ReqID: 9})
	if _, ok := r.l2.TimedWake(r.now); ok {
		t.Error("timed wake claimed with queued input")
	}

	r, _, _ = parkedRig()
	r.rejectNoC = true
	r.request(mem.BusRd, 2, 0, 9) // a hit on Y: its fill reply backs up behind the port
	if r.l2.outNoC.Empty() {
		t.Fatal("reply was not held back")
	}
	if _, ok := r.l2.TimedWake(r.now); ok {
		t.Error("timed wake claimed with pending output")
	}

	r, _, _ = parkedRig()
	r.l2.MutIgnoreWriteStall = true
	if _, ok := r.l2.TimedWake(r.now); ok {
		t.Error("timed wake claimed under MutIgnoreWriteStall")
	}

	idle := newBankRig(Config{Lease: 50}, L2Geometry{Sets: 1, Ways: 2})
	if _, ok := idle.l2.TimedWake(0); ok {
		t.Error("timed wake claimed by an idle bank")
	}
}
