package tc

import (
	"fmt"
	"slices"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// l2Meta is the per-line TC metadata: the latest lease expiry granted
// to any L1, in global cycles.
type l2Meta struct {
	expiry uint64
}

// l2Miss tracks an outstanding DRAM read. Once data arrives it may
// still wait for an evictable victim (inclusion: only expired lines
// can be replaced), which is TC's delayed-eviction stall (§II-D3).
type l2Miss struct {
	block   mem.BlockAddr
	waiting []*mem.Msg
	data    *mem.Block // non-nil once DRAM returned but install stalled
}

// L2 is one TC shared cache bank. It implements coherence.L2.
type L2 struct {
	cfg    Config
	bankID int
	now    uint64

	array *cache.Array[l2Meta]
	miss  map[mem.BlockAddr]*l2Miss
	// blocked holds, per block, a stalled TC-Strong write at the head
	// and every request that arrived behind it, serviced in order once
	// the block's leases expire.
	blocked map[mem.BlockAddr][]*mem.Msg

	inQ      mem.MsgQueue
	perCycle int

	sendNoC  coherence.Sender
	sendDRAM coherence.Sender
	outNoC   mem.MsgQueue
	outDRAM  mem.MsgQueue

	// pool recycles the bank's msgs and blocks (see SetPool);
	// spareMiss and spareQueues recycle resolved miss entries and
	// drained blocked queues, backing arrays included.
	pool        *mem.Pool
	spareMiss   []*l2Miss
	spareQueues [][]*mem.Msg

	stats   stats.L2Stats
	obs     coherence.Observer
	fail    *diag.ProtocolError
	scratch []mem.BlockAddr // reusable sorted-block buffer (hot path)

	// MutIgnoreWriteStall is a test-only mutation hook for the model
	// checker's teeth: when set, TC-Strong writes commit without waiting
	// for the block's leases to expire — exactly the stall §II-D3 exists
	// to enforce — so L1s holding live leases read stale data.
	MutIgnoreWriteStall bool

	// stalledFills counts misses whose DRAM data has returned but whose
	// install stalled on unexpired victims (m.data != nil). While any
	// fill is stalled, Tick retries installs (and counts EvictStalls)
	// every cycle, so the bank must not be treated as quiescent.
	stalledFills int
}

// Geometry describes one bank's organization.
type L2Geometry struct {
	Sets     int
	Ways     int
	PerCycle int
}

// NewL2 builds TC bank bankID.
func NewL2(cfg Config, bankID int, geo L2Geometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2 {
	cfg.fillDefaults()
	if geo.PerCycle == 0 {
		geo.PerCycle = 1
	}
	return &L2{
		cfg:      cfg,
		bankID:   bankID,
		array:    cache.NewArray[l2Meta](geo.Sets, geo.Ways),
		miss:     make(map[mem.BlockAddr]*l2Miss),
		blocked:  make(map[mem.BlockAddr][]*mem.Msg),
		perCycle: geo.PerCycle,
		sendNoC:  sendNoC,
		sendDRAM: sendDRAM,
		obs:      obs,
		pool:     &mem.Pool{},
	}
}

// SetPool makes the bank draw and free its messages through pool,
// normally the one its machine shares among all components, the DRAM
// partitions included (see mem.Pool). Call it before the first request.
func (l *L2) SetPool(pool *mem.Pool) { l.pool = pool }

// Stats implements coherence.L2.
func (l *L2) Stats() *stats.L2Stats { return &l.stats }

// Pending implements coherence.L2.
func (l *L2) Pending() int {
	n := l.inQ.Len() + l.outNoC.Len() + l.outDRAM.Len()
	for _, m := range l.miss {
		n += len(m.waiting) + 1
	}
	for _, q := range l.blocked {
		n += len(q)
	}
	return n
}

// Quiescent implements coherence.L2. Blocked write queues bar
// quiescence because they resume on lease expiry (a time-based event,
// counting WriteStalls every waiting cycle); stalled fills bar it
// because Tick retries installs (counting EvictStalls) every cycle.
// When those are the bank's only work, TimedWake bounds the next
// expiry that matters, so the per-component dispatcher can let the
// bank sleep until then instead of ticking it every cycle. A plain
// outstanding miss is fine: it only changes state when its DRAM fill
// message arrives.
func (l *L2) Quiescent() bool {
	return !l.MsgPending() && len(l.blocked) == 0 && l.stalledFills == 0
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2) Drained() bool {
	return !l.MsgPending() && len(l.miss) == 0 && len(l.blocked) == 0
}

// failf records the first protocol violation; the bank then drops
// further input until the simulator surfaces the error.
func (l *L2) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("tc-l2[%d]", l.bankID), event, format, args...)
	}
}

// Err implements coherence.L2.
func (l *L2) Err() error {
	if l.fail == nil {
		return nil
	}
	return l.fail
}

// DumpState implements coherence.L2.
func (l *L2) DumpState() diag.CacheState {
	blocked := 0
	for _, q := range l.blocked {
		blocked += len(q)
	}
	return diag.CacheState{
		Name: "tc-l2", ID: l.bankID, Pending: l.Pending(),
		InQ: l.inQ.Len(), OutQ: l.outNoC.Len() + l.outDRAM.Len(),
		Misses: len(l.miss), Blocked: blocked,
	}
}

// Deliver implements coherence.L2.
func (l *L2) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	l.inQ.Push(msg)
}

// DRAMFill implements coherence.L2.
func (l *L2) DRAMFill(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	m, ok := l.miss[msg.Block]
	if !ok {
		l.failf("orphan-dram-fill", "DRAM fill for %v without outstanding miss", msg.Block)
		return
	}
	// The miss keeps the payload until the install succeeds; the fill
	// message itself is consumed here.
	m.data = msg.Data
	msg.Data = nil
	l.pool.PutMsg(msg)
	l.stalledFills++
	l.tryInstall(m)
}

// tryInstall attempts to place a returned fill. Inclusion forbids
// evicting lines with live leases; when the whole set is leased the
// fill stalls and retries every cycle (EvictStalls counts those
// cycles).
func (l *L2) tryInstall(m *l2Miss) {
	victim := l.array.Victim(m.block, func(c *cache.Line[l2Meta]) bool {
		return c.Meta.expiry <= l.now && l.blocked[c.Addr] == nil
	})
	if victim == nil {
		l.stats.EvictStalls++
		return
	}
	if victim.Valid {
		l.evict(victim)
	}
	l.array.Install(victim, m.block, m.data, l.now)
	l.pool.PutBlock(m.data)
	m.data = nil
	l.stats.DataAccesses++
	delete(l.miss, m.block)
	l.stalledFills--
	l.runQueue(m.block, victim, m.waiting)
	l.freeMiss(m)
}

func (l *L2) evict(victim *cache.Line[l2Meta]) {
	l.stats.Evictions++
	if victim.Dirty {
		l.stats.WritebackDRAM++
		data := l.pool.Block()
		*data = victim.Data
		l.postDRAM(l.pool.Msg(mem.Msg{
			Type: mem.DRAMWr, Block: victim.Addr, Src: l.bankID, Dst: l.bankID,
			Data: data, Mask: mem.MaskAll,
		}))
	}
	l.array.Invalidate(victim)
}

// runQueue services msgs against line in order until a TC-Strong write
// must stall; the stalling write and everything behind it park in
// l.blocked for Tick to resume.
func (l *L2) runQueue(block mem.BlockAddr, line *cache.Line[l2Meta], msgs []*mem.Msg) {
	for i, msg := range msgs {
		if l.mustStall(msg, line) {
			l.park(block, msgs[i:]...)
			return
		}
		l.consume(msg, line)
	}
}

// mustStall reports whether msg is a TC-Strong write or atomic that
// has to wait for line's leases to expire (§II-D3).
func (l *L2) mustStall(msg *mem.Msg, line *cache.Line[l2Meta]) bool {
	writesBack := msg.Type == mem.BusWr || msg.Type == mem.BusAtom
	return writesBack && !l.cfg.Weak && line.Meta.expiry > l.now && !l.MutIgnoreWriteStall
}

// park appends msgs to block's blocked queue, starting the queue from a
// recycled backing array.
func (l *L2) park(block mem.BlockAddr, msgs ...*mem.Msg) {
	q, ok := l.blocked[block]
	if n := len(l.spareQueues); !ok && n > 0 {
		q = l.spareQueues[n-1]
		l.spareQueues = l.spareQueues[:n-1]
	}
	l.blocked[block] = append(q, msgs...)
}

// consume serves one request against a present line and frees it.
func (l *L2) consume(msg *mem.Msg, line *cache.Line[l2Meta]) {
	l.process(msg, line)
	l.pool.PutBlock(msg.Data)
	l.pool.PutMsg(msg)
}

func (l *L2) process(msg *mem.Msg, line *cache.Line[l2Meta]) {
	switch msg.Type {
	case mem.BusRd:
		l.processRead(msg, line)
	case mem.BusWr:
		l.performWrite(msg, line)
	case mem.BusAtom:
		l.performAtomic(msg, line)
	default:
		l.failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
	}
}

// performAtomic commits a read-modify-write at the L2. TC-Strong
// callers guarantee the lease has expired (runQueue stalls it like a
// write); TC-Weak performs immediately and reports the GWCT.
func (l *L2) performAtomic(msg *mem.Msg, line *cache.Line[l2Meta]) {
	gwct := maxu(line.Meta.expiry, l.now)
	old := l.pool.Block()
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
	ack := l.pool.Msg(mem.Msg{
		Type: mem.BusAtomAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		Data: old, Mask: msg.Mask, ReqID: msg.ReqID, Warp: msg.Warp,
	})
	if l.cfg.Weak {
		ack.GWCT = gwct
	}
	l.postNoC(ack)
}

// processRead extends the block's lease and returns data — TC
// responses always carry the block, unlike G-TSC's dataless renewals,
// which is one source of its extra NoC traffic (Fig 15).
func (l *L2) processRead(msg *mem.Msg, line *cache.Line[l2Meta]) {
	line.Meta.expiry = maxu(line.Meta.expiry, l.now+l.cfg.Lease)
	l.array.Touch(line, l.now)
	l.stats.FillsSent++
	l.stats.DataAccesses++
	data := l.pool.Block()
	*data = line.Data
	l.postNoC(l.pool.Msg(mem.Msg{
		Type: mem.BusFill, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		RTS: line.Meta.expiry, Data: data, ReqID: msg.ReqID,
	}))
}

// performWrite commits a write at the L2. TC-Strong callers guarantee
// the lease has expired; TC-Weak commits immediately and reports the
// write's global completion time (GWCT = when all private copies will
// have self-invalidated) in the acknowledgment.
func (l *L2) performWrite(msg *mem.Msg, line *cache.Line[l2Meta]) {
	gwct := maxu(line.Meta.expiry, l.now)
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
	ack := l.pool.Msg(mem.Msg{
		Type: mem.BusWrAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		ReqID: msg.ReqID, Warp: msg.Warp,
	})
	if l.cfg.Weak {
		ack.GWCT = gwct
	}
	l.postNoC(ack)
}

// SyncClock implements coherence.L2. The bank clock gates lease-expiry
// eviction eligibility and write-unblocking, and stamps granted leases,
// so it must track the machine clock across skipped ticks. Each
// skipped cycle before TimedWake's wake is one Tick that would only
// have counted a write stall per blocked block and an eviction stall
// per stalled fill, so those are added in bulk here. On a quiescent
// bank both counts are zero.
func (l *L2) SyncClock(now uint64) {
	if now > l.now {
		d := now - l.now
		l.stats.WriteStalls += uint64(len(l.blocked)) * d
		l.stats.EvictStalls += uint64(l.stalledFills) * d
	}
	l.now = now
}

// TimedWake implements coherence.L2. With no queued input or output,
// the bank's remaining work is blocked TC-Strong writes and fills
// stalled on leased victims. A blocked queue resumes when its line's
// lease expires. A stalled fill can install once some line of its set
// has expired and is not blocked; every valid line of the set is
// either unexpired or blocked (an expired, unblocked line would have
// been taken as the victim), so the fill's wake is the earliest expiry
// in its set. Before the earliest of those wakes, each Tick only
// counts stall cycles, which SyncClock accounts exactly.
func (l *L2) TimedWake(now uint64) (uint64, bool) {
	if l.fail != nil || l.MutIgnoreWriteStall || l.MsgPending() ||
		(len(l.blocked) == 0 && l.stalledFills == 0) {
		return 0, false
	}
	at, ok := uint64(0), false
	earliest := func(e uint64) {
		if !ok || e < at {
			at, ok = e, true
		}
	}
	for block := range l.blocked {
		line := l.array.Lookup(block)
		if line == nil {
			return 0, false // Tick will fail the bank
		}
		earliest(line.Meta.expiry)
	}
	if l.stalledFills > 0 {
		// A never-evictable filter makes Victim a side-effect-free scan
		// of the set's valid ways; it returns a line only if a way is
		// free, in which case the next Tick installs.
		inSet := func(c *cache.Line[l2Meta]) bool { earliest(c.Meta.expiry); return false }
		for block, m := range l.miss {
			if m.data != nil && l.array.Victim(block, inSet) != nil {
				return 0, false
			}
		}
	}
	// An expiry at or before now (possible only before this cycle's
	// Tick has run) means the next Tick acts.
	return max(at, now+1), ok
}

// Tick implements coherence.L2.
func (l *L2) Tick(now uint64) {
	l.now = now
	l.drainOut()
	l.resumeBlocked()
	l.retryInstalls()
	if !l.outNoC.Empty() || !l.outDRAM.Empty() {
		return
	}
	for i := 0; i < l.perCycle && !l.inQ.Empty(); i++ {
		l.service(l.inQ.Pop())
	}
}

// resumeBlocked re-runs each parked queue whose head write's leases
// have expired, and counts the stall cycles of those still waiting
// (the paper's lease-induced stall, §II-D3). Blocks resume in address
// order so runs are reproducible.
func (l *L2) resumeBlocked() {
	if len(l.blocked) == 0 {
		return
	}
	blocks := l.scratch[:0]
	for block := range l.blocked {
		blocks = append(blocks, block)
	}
	l.scratch = blocks
	slices.Sort(blocks)
	for _, block := range blocks {
		q := l.blocked[block]
		line := l.array.Lookup(block)
		if line == nil {
			l.failf("blocked-line-vanished", "blocked queue for %v lost its line", block)
			return
		}
		if line.Meta.expiry > l.now && !l.MutIgnoreWriteStall {
			l.stats.WriteStalls++
			continue
		}
		delete(l.blocked, block)
		l.runQueue(block, line, q)
		clear(q)
		l.spareQueues = append(l.spareQueues, q[:0])
	}
}

// retryInstalls re-attempts stalled fills in address order so victim
// selection is reproducible.
func (l *L2) retryInstalls() {
	if l.stalledFills == 0 {
		return
	}
	blocks := l.scratch[:0]
	for block, m := range l.miss {
		if m.data != nil {
			blocks = append(blocks, block)
		}
	}
	l.scratch = blocks
	slices.Sort(blocks)
	for _, block := range blocks {
		if m, ok := l.miss[block]; ok && m.data != nil {
			l.tryInstall(m)
		}
	}
}

func (l *L2) service(msg *mem.Msg) {
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

	if q, ok := l.blocked[msg.Block]; ok {
		// Order behind the stalled write.
		l.blocked[msg.Block] = append(q, msg)
		return
	}
	if m, ok := l.miss[msg.Block]; ok {
		m.waiting = append(m.waiting, msg)
		return
	}
	line := l.array.Lookup(msg.Block)
	if line == nil {
		l.stats.Misses++
		m := l.newMiss(msg.Block)
		m.waiting = append(m.waiting, msg)
		l.miss[msg.Block] = m
		l.postDRAM(l.pool.Msg(mem.Msg{Type: mem.DRAMRd, Block: msg.Block, Src: l.bankID, Dst: l.bankID}))
		return
	}
	l.stats.Hits++
	if l.mustStall(msg, line) {
		l.park(msg.Block, msg)
		return
	}
	l.consume(msg, line)
}

// newMiss returns an empty miss entry for b, reusing a freed one.
func (l *L2) newMiss(b mem.BlockAddr) *l2Miss {
	if n := len(l.spareMiss); n > 0 {
		m := l.spareMiss[n-1]
		l.spareMiss = l.spareMiss[:n-1]
		m.block = b
		return m
	}
	return &l2Miss{block: b}
}

// freeMiss recycles a resolved miss entry; its waiters must already be
// consumed or parked.
func (l *L2) freeMiss(m *l2Miss) {
	clear(m.waiting)
	m.waiting = m.waiting[:0]
	l.spareMiss = append(l.spareMiss, m)
}

func (l *L2) postNoC(msg *mem.Msg) {
	if l.outNoC.Empty() && l.sendNoC.TrySend(msg) {
		return
	}
	l.outNoC.Push(msg)
}

func (l *L2) postDRAM(msg *mem.Msg) {
	if l.outDRAM.Empty() && l.sendDRAM.TrySend(msg) {
		return
	}
	l.outDRAM.Push(msg)
}

func (l *L2) drainOut() {
	for !l.outNoC.Empty() && l.sendNoC.TrySend(l.outNoC.Head()) {
		l.outNoC.Pop()
	}
	for !l.outDRAM.Empty() && l.sendDRAM.TrySend(l.outDRAM.Head()) {
		l.outDRAM.Pop()
	}
}

// MsgPending reports message-driven work: queued input not yet
// serviced, or output not yet injected. Time-driven work (blocked
// TC-Strong writes, installs stalled on unexpired victims) is excluded
// — it resolves by the passage of time, not by message processing. The
// model checker uses this to advance its clock only when every message
// in flight has been fully absorbed, which excludes zeno behaviors
// (e.g. a lease expiring in flight forever re-sending the same read)
// while preserving the expiry-vs-access races.
func (l *L2) MsgPending() bool {
	return !l.inQ.Empty() || !l.outNoC.Empty() || !l.outDRAM.Empty()
}

// ForEachLease implements coherence.LeaseHolder: each resident line's
// granted lease as (0, expiry) in physical time.
func (l *L2) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	l.array.ForEach(func(c *cache.Line[l2Meta]) { fn(c.Addr, 0, c.Meta.expiry) })
}

// NextTimeEvent implements coherence.TimeSensitive: the earliest future
// lease expiry, which unblocks parked TC-Strong writes and frees
// eviction victims for stalled fills.
func (l *L2) NextTimeEvent(now uint64) (uint64, bool) {
	var at uint64
	ok := false
	l.array.ForEach(func(c *cache.Line[l2Meta]) {
		if e := c.Meta.expiry; e > now && (!ok || e < at) {
			at, ok = e, true
		}
	})
	return at, ok
}

// Peek implements coherence.L2 (verification hook).
func (l *L2) Peek(b mem.BlockAddr) (mem.Block, bool) {
	line := l.array.Lookup(b)
	if line == nil {
		return mem.Block{}, false
	}
	return line.Data, true
}
