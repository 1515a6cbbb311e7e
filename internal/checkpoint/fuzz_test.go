package checkpoint

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to DecodeBytes. It must never panic,
// whatever it accepts must survive an encode/decode round trip
// unchanged, and that encoding must stop being accepted once a byte is
// appended to its payload or to its frame.
//
//	go test -run='^$' -fuzz=FuzzDecode -fuzztime=20s ./internal/checkpoint
func FuzzDecode(f *testing.F) {
	ck := testCheckpoint()
	plain := frame(ck.marshal())
	paused := frame(withPauses(ck, 3, 1000, 65537, 123456789))
	f.Add(plain)
	f.Add(paused)
	f.Add(frame((&Checkpoint{Phase: "idle"}).marshal()))

	// Field boundaries of the payload, in marshal's order: workload
	// length and bytes, scale, config hash, kernel index, cycle, phase
	// length and bytes, digest, pause count, pause cycles.
	var bounds []int
	at := 0
	for _, n := range []int{4, len(ck.Workload), 8, 8, 8, 8, 4, len(ck.Phase), 8, 4, 8, 8, 8} {
		at += n
		bounds = append(bounds, at)
	}
	header := len(ckptMagic) + 4 + 8 // magic, version, frame length and CRC
	full := withPauses(ck, 3, 1000, 65537, 123456789)
	for _, b := range append([]int{len(ckptMagic), len(ckptMagic) + 4, header - 4, header}, bounds...) {
		if b < len(paused) {
			f.Add(paused[:b]) // a torn file
		}
		if b >= header && b-header < len(full) {
			f.Add(frame(full[:b-header])) // a torn payload under a valid CRC
		}
	}

	flipped := append([]byte(nil), plain...)
	flipped[header-1] ^= 0x80 // the CRC's top byte
	f.Add(flipped)
	f.Add(frame(append(ck.marshal(), 1, 2, 3, 4, 5))) // trailing payload bytes
	f.Add(append(append([]byte(nil), plain...), 0))   // a byte after the frame

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeBytes(b)
		if err != nil {
			return
		}
		enc, err := got.EncodeBytes()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeBytes(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded %+v: %v", got, err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", again, got)
		}
		if _, err := DecodeBytes(frame(append(got.marshal(), 0))); err == nil {
			t.Fatal("accepted a payload with a trailing byte")
		}
		if _, err := DecodeBytes(append(enc, 0)); err == nil {
			t.Fatal("accepted a byte after the frame")
		}
	})
}
