package mem

import "testing"

// TestPoolPoisonsAndZeroes pins the use-after-free tripwire: a freed
// message or block reads as poison, not as a plausible zero value, and
// a reused one comes back overwritten or zeroed.
func TestPoolPoisonsAndZeroes(t *testing.T) {
	var p Pool
	b := p.Block()
	m := p.Msg(Msg{Type: BusFill, Block: 7, Dst: 2, RTS: 40, ReqID: 9, Data: b})
	b.Words[3] = 11
	p.PutBlock(b)
	p.PutMsg(m)
	if m.Type == BusFill || m.RTS != poisonWord || m.ReqID != poisonWord || m.Data != nil {
		t.Fatalf("freed message not poisoned: %+v", *m)
	}
	for i, w := range b.Words {
		if w != poisonWord {
			t.Fatalf("freed block word %d = %#x, want poison", i, w)
		}
	}
	if m2 := p.Msg(Msg{Type: BusRd, Block: 3}); m2 != m || *m2 != (Msg{Type: BusRd, Block: 3}) {
		t.Fatalf("reused message not overwritten: %+v", *m2)
	}
	if b2 := p.Block(); b2 != b || *b2 != (Block{}) {
		t.Fatalf("reused block not zeroed: %x", b2.Words)
	}
}

// TestPoolDoubleFreePanics: freeing a message twice would hand it to
// two owners, so the pool refuses loudly.
func TestPoolDoubleFreePanics(t *testing.T) {
	var p Pool
	m := p.Msg(Msg{})
	p.PutMsg(m)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutMsg did not panic")
		}
	}()
	p.PutMsg(m)
}

// TestPoolRetentionBounded: past poolKeep, freed objects are left to
// the GC (still poisoned) instead of growing the free lists.
func TestPoolRetentionBounded(t *testing.T) {
	var p Pool
	for i := 0; i < 2*poolKeep; i++ {
		p.PutMsg(&Msg{})
		p.PutBlock(&Block{})
	}
	if len(p.msgs) != poolKeep || len(p.blocks) != poolKeep {
		t.Fatalf("free lists hold %d msgs, %d blocks; cap %d", len(p.msgs), len(p.blocks), poolKeep)
	}
}
