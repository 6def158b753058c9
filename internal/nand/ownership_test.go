package nand

import (
	"bytes"
	"testing"

	"repro/internal/ecc"
	"repro/internal/sim"
)

// TestReadCopyIsPrivate pins the read-only page contract at the card:
// ProgramPage keeps the data it is given and every read shares that
// slice. Through the controller's corrector (ecc.Correct), a clean read
// and a read whose flips SEC-DED repairs both hand out the stored data
// itself; only a read left with a residual error (three or more flips
// in one word, miscorrected) gets a private copy. Nothing a reader does
// with its copy, and no read at all, changes what Peek sees.
//
// A rate of 2e-4 gives the clean and the corrected reads; 1e-3 (at
// least four flips a read) the rare miscorrected ones.
func TestReadCopyIsPrivate(t *testing.T) {
	geo := testGeometry()
	codec, err := ecc.NewPageCodec(geo.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	clean, corrected, copied := 0, 0, 0
	for _, ber := range []float64{2e-4, 1e-3} {
		eng := sim.NewEngine()
		c, err := NewCard(eng, "own", geo, DefaultTiming(), Reliability{BitErrorRate: ber}, 5)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, geo.PageSize)
		sim.NewRNG(9).Bytes(data)
		stored := bytes.Clone(data)
		a := Addr{0, 0, 0, 0}
		c.ProgramPage(a, data, func(err error) {
			if err != nil {
				t.Fatalf("program: %v", err)
			}
		})
		eng.Run()
		if &c.Peek(a)[0] != &data[0] || cap(c.Peek(a)) != geo.PageSize {
			t.Fatal("the card does not keep the programmed slice, capped at the page")
		}
		for i := 0; i < 2000; i++ {
			var got []byte
			var fixed, nflips int
			var decErr error
			c.ReadPage(a, func(page []byte, flips []int, err error) {
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if &page[0] != &c.Peek(a)[0] {
					t.Fatalf("read %d did not share the stored data", i)
				}
				nflips = len(flips)
				got, fixed, decErr = codec.Correct(page, flips)
			})
			eng.Run()
			switch {
			case decErr != nil:
				// Detected double flip: no data handed out.
			case &got[0] == &c.Peek(a)[0]:
				if !bytes.Equal(got, stored) {
					t.Fatalf("read %d shared the stored data but it differs", i)
				}
				if nflips == 0 {
					clean++
				} else if fixed > 0 {
					corrected++
				}
			default:
				if bytes.Equal(got, stored) {
					t.Fatalf("read %d copied a page it did not change", i)
				}
				copied++
				got[0] ^= 0xff // the copy is the reader's: writing it is harmless
			}
			if !bytes.Equal(c.Peek(a), stored) {
				t.Fatalf("read %d changed the stored data", i)
			}
		}
	}
	if clean == 0 || corrected == 0 || copied == 0 {
		t.Fatalf("%d clean, %d corrected and %d miscorrected reads; the test needs each", clean, corrected, copied)
	}
}
