package ecc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// checkCorrect compares the sparse corrector with the reference: the
// stored image (EncodePage) with every position of flips toggled
// (FlipBit), decoded whole by DecodePageInPlace. Both must give equal
// bytes, an equal corrected count and equal error text; Correct must
// not write page, and must hand page itself back whenever it returns
// the stored bytes unchanged.
func checkCorrect(t *testing.T, c *PageCodec, page []byte, flips []int) {
	t.Helper()
	raw, err := c.EncodePage(page)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flips {
		FlipBit(raw, p)
	}
	want, wantErr := c.DecodePageInPlace(raw)

	orig := bytes.Clone(page)
	got, n, gotErr := c.Correct(page, slices.Clone(flips))
	if !bytes.Equal(page, orig) {
		t.Fatalf("flips %v: Correct wrote the read-only page", flips)
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("flips %v: error %v, reference %v", flips, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if n != want.Corrected {
		t.Fatalf("flips %v: corrected %d, reference %d", flips, n, want.Corrected)
	}
	if !bytes.Equal(got, want.Data) {
		t.Fatalf("flips %v: corrected bytes differ from the reference", flips)
	}
	if shared := &got[0] == &page[0]; shared != bytes.Equal(got, page) {
		t.Fatalf("flips %v: returned page itself = %v, but data changed = %v", flips, shared, !shared)
	}
}

// randomFlips draws a flip list over the stored image of c: a few
// words, each hit by 0–4 flips anywhere in its 72-bit code word (data
// or OOB check byte), plus repeated positions that cancel, shuffled.
func randomFlips(rng *rand.Rand, c *PageCodec) []int {
	words := c.PageSize() / 8
	var flips []int
	for k := rng.Intn(6); k > 0; k-- {
		w := rng.Intn(words)
		for f := rng.Intn(5); f > 0; f-- {
			if b := rng.Intn(72); b < 64 {
				flips = append(flips, 64*w+b)
			} else {
				flips = append(flips, 8*(c.PageSize()+w)+b-64)
			}
		}
	}
	for r := rng.Intn(3); r > 0 && len(flips) > 0; r-- {
		flips = append(flips, flips[rng.Intn(len(flips))])
	}
	rng.Shuffle(len(flips), func(i, j int) { flips[i], flips[j] = flips[j], flips[i] })
	return flips
}

// TestCorrectMatchesReference is the differential test of the sparse
// corrector against the whole-image decode: random pages × random flip
// lists, including miscorrected words (whose residual Correct must
// apply) and uncorrectable ones (whose first word the error names).
func TestCorrectMatchesReference(t *testing.T) {
	c, err := NewPageCodec(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	page := make([]byte, c.PageSize())
	var clean, corrected, miscorrected, failed int
	for i := 0; i < 20000; i++ {
		rng.Read(page)
		flips := randomFlips(rng, c)
		checkCorrect(t, c, page, flips)
		switch got, n, err := c.Correct(page, flips); {
		case err != nil:
			failed++
		case &got[0] != &page[0]:
			miscorrected++
		case n > 0:
			corrected++
		default:
			clean++
		}
	}
	// The comparison is only as strong as the cases it saw.
	if clean == 0 || corrected == 0 || miscorrected == 0 || failed == 0 {
		t.Fatalf("clean %d, corrected %d, miscorrected %d, uncorrectable %d: want every case",
			clean, corrected, miscorrected, failed)
	}
}

// TestCorrectEveryCodewordBit checks every single-bit error of one word,
// data and check byte alike: each is corrected in place of a copy.
func TestCorrectEveryCodewordBit(t *testing.T) {
	c, _ := NewPageCodec(64)
	page := bytes.Repeat([]byte{0xa5, 0x3c}, 32)
	for w := 0; w < c.PageSize()/8; w++ {
		for b := 0; b < 64; b++ {
			checkCorrect(t, c, page, []int{64*w + b})
		}
		for b := 0; b < 8; b++ {
			checkCorrect(t, c, page, []int{8*(c.PageSize()+w) + b})
		}
	}
}

// TestCorrectAllocFree pins the clean read (no flips) and the common
// corrected read (single flips) at zero allocations: Correct hands the
// stored page back and sorts the card's scratch in place.
func TestCorrectAllocFree(t *testing.T) {
	c, _ := NewPageCodec(8192)
	page := make([]byte, c.PageSize())
	if avg := testing.AllocsPerRun(100, func() {
		if _, _, err := c.Correct(page, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Correct with no flips allocates %.1f per call, want 0", avg)
	}
	flips := make([]int, 3)
	if avg := testing.AllocsPerRun(100, func() {
		flips = append(flips[:0], 70001, 77, 8*8192+900)
		if _, n, err := c.Correct(page, flips); err != nil || n != 3 {
			t.Fatalf("Correct: %d corrected, %v", n, err)
		}
	}); avg != 0 {
		t.Fatalf("Correct with single flips allocates %.1f per call, want 0", avg)
	}
}

// FuzzCorrect fuzzes the comparison of TestCorrectMatchesReference on a
// 64-byte page: in is the page data (zero-padded or cut to 64 bytes),
// and each pair of bytes of pos is one flip position over the page's
// 576-bit stored image.
func FuzzCorrect(f *testing.F) {
	f.Add([]byte("sixty-four bytes of page data"), []byte{0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 64), []byte{0, 3, 0, 3, 2, 10, 2, 11})
	f.Add([]byte{1, 2, 3}, []byte{0, 0, 0, 1, 0, 2, 2, 0, 2, 1, 2, 2})
	c, _ := NewPageCodec(64)
	f.Fuzz(func(t *testing.T, in, pos []byte) {
		page := make([]byte, c.PageSize())
		copy(page, in)
		bits := 8 * c.StoredSize()
		var flips []int
		for i := 0; i+1 < len(pos); i += 2 {
			flips = append(flips, (int(pos[i])<<8|int(pos[i+1]))%bits)
		}
		checkCorrect(t, c, page, flips)
	})
}
