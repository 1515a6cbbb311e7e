package nocoh

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// L2Plain is a shared cache bank with no coherence metadata: reads
// return data, writes merge and acknowledge, misses fetch from DRAM.
// Both non-coherent configurations (BL and Baseline-w/L1) run over it.
// It implements coherence.L2.
type L2Plain struct {
	bankID int
	now    uint64

	array *cache.Array[struct{}]
	miss  map[mem.BlockAddr]*plainMiss

	inQ      []*mem.Msg
	perCycle int

	sendNoC  coherence.Sender
	sendDRAM coherence.Sender
	outNoC   []*mem.Msg
	outDRAM  []*mem.Msg

	stats stats.L2Stats
	obs   coherence.Observer
	// observeLoads makes the bank report loads to the observer at
	// processing time — set for the BL configuration, where there is
	// no L1 and load values bind here.
	observeLoads bool
	fail         *diag.ProtocolError
}

type plainMiss struct {
	block   mem.BlockAddr
	waiting []*mem.Msg
}

// L2Geometry describes one bank's organization.
type L2Geometry struct {
	Sets     int
	Ways     int
	PerCycle int
}

// NewL2Plain builds bank bankID.
func NewL2Plain(bankID int, geo L2Geometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2Plain {
	if geo.PerCycle == 0 {
		geo.PerCycle = 1
	}
	return &L2Plain{
		bankID:   bankID,
		array:    cache.NewArray[struct{}](geo.Sets, geo.Ways),
		miss:     make(map[mem.BlockAddr]*plainMiss),
		perCycle: geo.PerCycle,
		sendNoC:  sendNoC,
		sendDRAM: sendDRAM,
		obs:      obs,
	}
}

// Stats implements coherence.L2.
func (l *L2Plain) Stats() *stats.L2Stats { return &l.stats }

// Pending implements coherence.L2.
func (l *L2Plain) Pending() int {
	n := len(l.inQ) + len(l.outNoC) + len(l.outDRAM)
	for _, m := range l.miss {
		n += len(m.waiting) + 1
	}
	return n
}

// Quiescent implements coherence.L2. Outstanding misses do not block
// quiescence: fills install unconditionally, so a miss entry only
// changes state when its DRAM fill arrives (a scheduled event).
func (l *L2Plain) Quiescent() bool {
	return len(l.inQ) == 0 && len(l.outNoC) == 0 && len(l.outDRAM) == 0
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2Plain) Drained() bool {
	return len(l.inQ) == 0 && len(l.outNoC) == 0 && len(l.outDRAM) == 0 && len(l.miss) == 0
}

// failf records the first protocol violation; the bank then drops
// further input until the simulator surfaces the error.
func (l *L2Plain) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("plain-l2[%d]", l.bankID), event, format, args...)
	}
}

// Err implements coherence.L2.
func (l *L2Plain) Err() error {
	if l.fail == nil {
		return nil
	}
	return l.fail
}

// DumpState implements coherence.L2.
func (l *L2Plain) DumpState() diag.CacheState {
	return diag.CacheState{
		Name: "plain-l2", ID: l.bankID, Pending: l.Pending(),
		MSHRUsed: len(l.miss), InQ: len(l.inQ),
		OutQ: len(l.outNoC) + len(l.outDRAM), Misses: len(l.miss),
	}
}

// Deliver implements coherence.L2.
func (l *L2Plain) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	l.inQ = append(l.inQ, msg)
}

// DRAMFill implements coherence.L2.
func (l *L2Plain) DRAMFill(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	m, ok := l.miss[msg.Block]
	if !ok {
		l.failf("orphan-dram-fill", "DRAM fill for %v without outstanding miss", msg.Block)
		return
	}
	delete(l.miss, msg.Block)
	victim := l.array.Victim(msg.Block, nil)
	if victim.Valid {
		l.evict(victim)
	}
	l.array.Install(victim, msg.Block, msg.Data, l.now)
	l.stats.DataAccesses++
	for _, w := range m.waiting {
		l.process(w, victim)
	}
}

func (l *L2Plain) evict(victim *cache.Line[struct{}]) {
	l.stats.Evictions++
	if victim.Dirty {
		l.stats.WritebackDRAM++
		data := &mem.Block{}
		*data = victim.Data
		l.postDRAM(&mem.Msg{
			Type: mem.DRAMWr, Block: victim.Addr, Src: l.bankID, Dst: l.bankID,
			Data: data, Mask: mem.MaskAll,
		})
	}
	l.array.Invalidate(victim)
}

func (l *L2Plain) process(msg *mem.Msg, line *cache.Line[struct{}]) {
	switch msg.Type {
	case mem.BusRd:
		l.array.Touch(line, l.now)
		l.stats.FillsSent++
		l.stats.DataAccesses++
		data := &mem.Block{}
		*data = line.Data
		if l.observeLoads && l.obs != nil {
			var loaded mem.Block
			mem.Merge(&loaded, data, msg.Mask)
			l.obs.Observe(coherence.Op{
				SM: msg.Src, Warp: msg.Warp, Block: msg.Block,
				Mask: msg.Mask, Data: loaded, Cycle: l.now,
			})
		}
		l.postNoC(&mem.Msg{
			Type: mem.BusFill, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
			Data: data, ReqID: msg.ReqID,
		})
	case mem.BusWr:
		mem.Merge(&line.Data, msg.Data, msg.Mask)
		line.Dirty = true
		l.array.Touch(line, l.now)
		l.stats.DataAccesses++
		if l.obs != nil {
			var stored mem.Block
			mem.Merge(&stored, msg.Data, msg.Mask)
			l.obs.Observe(coherence.Op{
				SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
				Mask: msg.Mask, Data: stored, Cycle: l.now,
			})
		}
		l.postNoC(&mem.Msg{
			Type: mem.BusWrAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
			ReqID: msg.ReqID, Warp: msg.Warp,
		})
	case mem.BusAtom:
		old := &mem.Block{}
		mem.Merge(old, &line.Data, msg.Mask)
		for i := 0; i < mem.WordsPerBlock; i++ {
			if msg.Mask.Has(i) {
				line.Data.Words[i] = msg.Atom.Apply(line.Data.Words[i], msg.Data.Words[i])
			}
		}
		line.Dirty = true
		l.array.Touch(line, l.now)
		l.stats.DataAccesses++
		if l.obs != nil {
			l.obs.Observe(coherence.Op{
				SM: msg.Src, Warp: msg.Warp, Block: msg.Block,
				Mask: msg.Mask, Data: *old, Cycle: l.now,
			})
			var stored mem.Block
			mem.Merge(&stored, &line.Data, msg.Mask)
			l.obs.Observe(coherence.Op{
				SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
				Mask: msg.Mask, Data: stored, Cycle: l.now,
			})
		}
		l.postNoC(&mem.Msg{
			Type: mem.BusAtomAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
			Data: old, Mask: msg.Mask, ReqID: msg.ReqID, Warp: msg.Warp,
		})
	default:
		l.failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
	}
}

// SyncClock implements coherence.L2.
func (l *L2Plain) SyncClock(now uint64) { l.now = now }

// TimedWake implements coherence.L2: this bank has no time-driven
// work loops.
func (l *L2Plain) TimedWake(uint64) (uint64, bool) { return 0, false }

// Tick implements coherence.L2.
func (l *L2Plain) Tick(now uint64) {
	l.now = now
	l.drainOut()
	if len(l.outNoC) > 0 || len(l.outDRAM) > 0 {
		return
	}
	for i := 0; i < l.perCycle && len(l.inQ) > 0; i++ {
		msg := l.inQ[0]
		l.inQ = l.inQ[1:]
		l.service(msg)
	}
}

func (l *L2Plain) service(msg *mem.Msg) {
	switch msg.Type {
	case mem.BusRd:
		l.stats.Reads++
	case mem.BusWr:
		l.stats.Writes++
	case mem.BusAtom:
		l.stats.Atomics++
	default:
		l.failf("unexpected-message", "request %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
		return
	}
	l.stats.TagProbes++
	if m, ok := l.miss[msg.Block]; ok {
		m.waiting = append(m.waiting, msg)
		return
	}
	line := l.array.Lookup(msg.Block)
	if line == nil {
		l.stats.Misses++
		m := &plainMiss{block: msg.Block, waiting: []*mem.Msg{msg}}
		l.miss[msg.Block] = m
		l.postDRAM(&mem.Msg{Type: mem.DRAMRd, Block: msg.Block, Src: l.bankID, Dst: l.bankID})
		return
	}
	l.stats.Hits++
	l.process(msg, line)
}

func (l *L2Plain) postNoC(msg *mem.Msg) {
	if len(l.outNoC) == 0 && l.sendNoC.TrySend(msg) {
		return
	}
	l.outNoC = append(l.outNoC, msg)
}

func (l *L2Plain) postDRAM(msg *mem.Msg) {
	if len(l.outDRAM) == 0 && l.sendDRAM.TrySend(msg) {
		return
	}
	l.outDRAM = append(l.outDRAM, msg)
}

func (l *L2Plain) drainOut() {
	for len(l.outNoC) > 0 {
		if !l.sendNoC.TrySend(l.outNoC[0]) {
			break
		}
		l.outNoC = l.outNoC[1:]
	}
	for len(l.outDRAM) > 0 {
		if !l.sendDRAM.TrySend(l.outDRAM[0]) {
			break
		}
		l.outDRAM = l.outDRAM[1:]
	}
}

// SetObserveLoads makes the bank observe loads at processing time
// (BL configuration).
func (l *L2Plain) SetObserveLoads(v bool) { l.observeLoads = v }

// Peek implements coherence.L2 (verification hook).
func (l *L2Plain) Peek(b mem.BlockAddr) (*mem.Block, bool) {
	line := l.array.Lookup(b)
	if line == nil {
		return nil, false
	}
	data := line.Data
	return &data, true
}
