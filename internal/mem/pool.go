package mem

// Pool recycles Msg and Block allocations inside one memory hierarchy.
// Messages flow in closed loops (L1 request -> L2 response -> L1, L2
// DRAM read -> fill -> L2), so when every controller frees the
// messages it consumes and draws the messages it sends from one pool,
// the hot paths reach a steady state that allocates nothing.
//
// Ownership rule: a message belongs to exactly one component at a
// time — the sender until the transport's Deliver callback runs, the
// receiver afterwards. The receiver frees the message (and its Data
// payload) once its handler returns, which is sound because every
// consumer copies what it keeps: fills install block contents into a
// cache array, and completions hand data to Done callbacks that must
// not retain it (see coherence.Completion). A request a controller
// parks (behind a miss, a stalled write or a directory transaction)
// stays owned by it until the parked request is finally served.
//
// Use-after-free tripwire: PutMsg and PutBlock overwrite the object
// with a poison pattern (an invalid MsgType, 0xDEADBEEF words) rather
// than zeroes; Msg overwrites a reused message whole and Block zeroes
// a reused block. Code that reads a message after freeing it therefore
// sees garbage that changes a golden fingerprint or fails a protocol
// check in an ordinary test run. Freeing a message twice panics.
//
// A Pool is not safe for concurrent use. The simulator ticks every
// component of one machine on one goroutine, so the machine's
// controllers and DRAM partitions share a single pool (memsys.New
// wires it); a controller built on its own gets a private one.
type Pool struct {
	msgs   []*Msg
	blocks []*Block
}

// poolKeep bounds each free list. Flows between the machine's
// components are not always closed within a window (a burst of fills
// frees blocks faster than stores spend them), so past the cap PutX
// leaves the object to the GC instead of growing the free list. One
// machine shares one pool, so the cap bounds what the whole machine
// retains: at most 256 messages and 256 blocks, about 60 KB. On the
// Fig-12 grid a cap of 32 made 8% more allocations than 256, and 1024
// saved under 1% more.
const poolKeep = 256

// Poison values written by PutMsg/PutBlock (see Pool).
const (
	poisonType MsgType = 0xFF
	poisonWord         = 0xDEADBEEF
)

var poisonMsg = Msg{Type: poisonType, Block: poisonWord, Src: -1, Dst: -1,
	WTS: poisonWord, RTS: poisonWord, WarpTS: poisonWord, GWCT: poisonWord,
	ReqID: poisonWord, Warp: -1, Epoch: poisonWord}

var poisonBlock = func() (b Block) {
	for i := range b.Words {
		b.Words[i] = poisonWord
	}
	return b
}()

// Msg returns a pooled message holding a copy of m. (Returning &m
// would move every argument to the heap.)
func (p *Pool) Msg(m Msg) *Msg {
	var x *Msg
	if n := len(p.msgs); n > 0 {
		x = p.msgs[n-1]
		p.msgs[n-1] = nil
		p.msgs = p.msgs[:n-1]
	} else {
		x = new(Msg)
	}
	*x = m
	return x
}

// PutMsg frees a consumed message; nil is a no-op. The message is
// poisoned whether or not the free list keeps it, and it must not be
// read again. Its Data block is not freed (see PutBlock).
func (p *Pool) PutMsg(m *Msg) {
	if m == nil {
		return
	}
	if m.Type == poisonType {
		panic("mem: message freed twice")
	}
	*m = poisonMsg
	if len(p.msgs) < poolKeep {
		p.msgs = append(p.msgs, m)
	}
}

// Block returns a zeroed data block.
func (p *Pool) Block() *Block {
	if n := len(p.blocks); n > 0 {
		b := p.blocks[n-1]
		p.blocks[n-1] = nil
		p.blocks = p.blocks[:n-1]
		*b = Block{}
		return b
	}
	return &Block{}
}

// PutBlock frees a data block; nil is a no-op, so callers can free
// msg.Data unconditionally. The block is poisoned and must not be read
// again.
func (p *Pool) PutBlock(b *Block) {
	if b == nil {
		return
	}
	*b = poisonBlock
	if len(p.blocks) < poolKeep {
		p.blocks = append(p.blocks, b)
	}
}

// MsgQueue is a FIFO of messages that reuses its backing array: Pop
// advances a head index instead of reslicing, and the array rewinds to
// the front whenever the queue empties. The simulator's queues drain
// fully almost every cycle, so the backing stabilizes at the high-water
// depth and enqueueing stops allocating.
type MsgQueue struct {
	buf  []*Msg
	head int
}

// Push appends a message.
func (q *MsgQueue) Push(m *Msg) { q.buf = append(q.buf, m) }

// Len returns the number of queued messages.
func (q *MsgQueue) Len() int { return len(q.buf) - q.head }

// Empty reports whether the queue is empty.
func (q *MsgQueue) Empty() bool { return q.head == len(q.buf) }

// Head returns the oldest message without removing it.
func (q *MsgQueue) Head() *Msg { return q.buf[q.head] }

// Items returns the queued messages oldest-first, as a view into the
// backing array (valid until the next Push/Pop) — for state digests
// and diagnostics.
func (q *MsgQueue) Items() []*Msg { return q.buf[q.head:] }

// Pop removes and returns the oldest message.
func (q *MsgQueue) Pop() *Msg {
	m := q.buf[q.head]
	q.buf[q.head] = nil // release for the pool/GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}
