package nand

import (
	"bytes"
	"testing"

	"repro/internal/ecc"
	"repro/internal/sim"
)

// TestReadCopyIsPrivate pins the read side of the page ownership
// contract: ProgramPage keeps the image it is given, so every read
// must hand out its own copy. Correcting injected flips in place in
// one read must leave the stored image (Peek) untouched, and two reads
// of one page must never share a buffer with each other or the card.
func TestReadCopyIsPrivate(t *testing.T) {
	eng := sim.NewEngine()
	geo := testGeometry()
	c, err := NewCard(eng, "own", geo, DefaultTiming(), Reliability{BitErrorRate: 2e-4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := ecc.NewPageCodec(geo.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, geo.PageSize)
	sim.NewRNG(9).Bytes(data)
	raw, err := codec.EncodePage(data)
	if err != nil {
		t.Fatal(err)
	}
	stored := bytes.Clone(raw)
	a := Addr{0, 0, 0, 0}
	c.ProgramPage(a, raw, func(err error) {
		if err != nil {
			t.Fatalf("program: %v", err)
		}
	})
	eng.Run()

	corrected := 0
	var prev []byte
	for i := 0; i < 50 && corrected == 0; i++ {
		got := readRaw(t, eng, c, a)
		if &got[0] == &c.Peek(a)[0] {
			t.Fatal("read returned the card's stored image, not a copy")
		}
		if prev != nil && &got[0] == &prev[0] {
			t.Fatal("two reads of one page returned the same buffer")
		}
		prev = got
		res, err := codec.DecodePageInPlace(got)
		if err != nil {
			continue // a double flip in one word: not the case under test
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatalf("read %d decoded to different data", i)
		}
		corrected = res.Corrected
		if !bytes.Equal(c.Peek(a), stored) {
			t.Fatalf("read %d: correcting the read copy changed the stored image", i)
		}
	}
	if corrected == 0 {
		t.Fatal("no read needed a correction; the test did not exercise one")
	}
}
