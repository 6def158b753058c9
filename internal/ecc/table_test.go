package ecc

import (
	"math/rand"
	"testing"
)

// encodeReference is the original bit-at-a-time encoder. The
// table-driven Encode must agree with it on every input: the tables
// are a pure speed optimization and any divergence silently changes
// what every simulated flash page stores.
func encodeReference(data uint64) byte {
	var syndrome int
	parity := 0
	for i := 0; i < 64; i++ {
		if data>>uint(i)&1 == 1 {
			syndrome ^= dataPos[i]
			parity ^= 1
		}
	}
	for b := 0; b < 7; b++ {
		if syndrome>>uint(b)&1 == 1 {
			parity ^= 1
		}
	}
	return byte(syndrome) | byte(parity)<<7
}

func TestEncodeMatchesReference(t *testing.T) {
	// Structured corners: single bits, runs, all-ones, zero.
	words := []uint64{0, ^uint64(0)}
	for i := 0; i < 64; i++ {
		words = append(words, 1<<uint(i), ^uint64(0)>>uint(i), ^uint64(0)<<uint(i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		words = append(words, rng.Uint64())
	}
	for _, w := range words {
		if got, want := Encode(w), encodeReference(w); got != want {
			t.Fatalf("Encode(%#x) = %#x, reference = %#x", w, got, want)
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
