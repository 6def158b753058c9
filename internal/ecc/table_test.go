package ecc

import (
	"math/rand"
	"testing"
)

// encodeReference is a bit-at-a-time SEC-DED encoder that derives the
// Hamming layout itself: data bits fill positions 1..71 that are not
// powers of two, in order. The table-driven Encode must agree with it
// on every input: the table is a pure speed optimization and any
// divergence silently changes what every simulated flash page stores.
func encodeReference(data uint64) byte {
	syndrome, parity := 0, 0
	i := 0
	for p := 1; p <= 71; p++ {
		if p&(p-1) == 0 {
			continue
		}
		if data>>uint(i)&1 == 1 {
			syndrome ^= p
			parity ^= 1
		}
		i++
	}
	for b := 0; b < 7; b++ {
		if syndrome>>uint(b)&1 == 1 {
			parity ^= 1
		}
	}
	return byte(syndrome) | byte(parity)<<7
}

// TestEncodeMatchesReference checks Encode on every value of each
// 16-bit lane (other lanes zero), on structured corners and on a
// million seeded random words.
func TestEncodeMatchesReference(t *testing.T) {
	check := func(w uint64) {
		t.Helper()
		if got, want := Encode(w), encodeReference(w); got != want {
			t.Fatalf("Encode(%#x) = %#x, reference = %#x", w, got, want)
		}
	}
	for lane := 0; lane < 4; lane++ {
		for v := uint64(0); v < 1<<16; v++ {
			check(v << uint(16*lane))
		}
	}
	check(^uint64(0))
	for i := 0; i < 64; i++ {
		check(1 << uint(i))
		check(^uint64(0) >> uint(i))
		check(^uint64(0) << uint(i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint64())
	}
}

// TestEncodeLinear checks the property the lane table rests on: the
// check byte is GF(2)-linear in the data word.
func TestEncodeLinear(t *testing.T) {
	if Encode(0) != 0 {
		t.Fatalf("Encode(0) = %#x, want 0", Encode(0))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if got, want := Encode(a^b), Encode(a)^Encode(b); got != want {
			t.Fatalf("Encode(%#x ^ %#x) = %#x, Encode(a)^Encode(b) = %#x", a, b, got, want)
		}
	}
}

// TestDecodePageInPlaceMatchesWordReference checks the page decoder,
// clean-word fast path included, against the word-level reference on
// pages with zero to two random flips anywhere in the stored image.
func TestDecodePageInPlaceMatchesWordReference(t *testing.T) {
	c, err := NewPageCodec(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, c.PageSize())
		rng.Read(data)
		raw, err := c.EncodePage(data)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < rng.Intn(3); f++ {
			FlipBit(raw, rng.Intn(c.StoredSize()*8))
		}
		refRaw := append([]byte(nil), raw...)

		refData, refFixed, refErr := refDecodePage(refRaw, c.PageSize())
		res, err := c.DecodePageInPlace(raw)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("trial %d: reference err=%v, in-place err=%v", trial, refErr, err)
		}
		if err != nil {
			continue
		}
		if res.Corrected != refFixed {
			t.Fatalf("trial %d: corrected %d, reference %d", trial, res.Corrected, refFixed)
		}
		if string(res.Data) != string(refData) {
			t.Fatalf("trial %d: in-place decode data diverges from reference", trial)
		}
	}
}
