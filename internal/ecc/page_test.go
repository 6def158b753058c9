package ecc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// codewordBit flips bit b (0..71) of word w's codeword in a stored
// image: bits 0..63 are the data word, 64..70 its Hamming check bits
// and 71 its overall parity bit, in the word's OOB byte.
func codewordBit(raw []byte, pageSize, w, b int) {
	if b < 64 {
		FlipBit(raw, w*64+b)
		return
	}
	FlipBit(raw[pageSize+w:], b-64)
}

// TestDecodePageSingleFlipEveryCodewordBit flips each of the 72
// codeword bits of every word in turn: the decoder must leave the
// clean-word fast path, restore the data and count one correction.
func TestDecodePageSingleFlipEveryCodewordBit(t *testing.T) {
	const pageSize = 128
	c, _ := NewPageCodec(pageSize)
	data := make([]byte, pageSize)
	sim.NewRNG(31).Bytes(data)
	clean, _ := c.EncodePage(data)
	for w := 0; w < pageSize/8; w++ {
		for b := 0; b < 72; b++ {
			raw := append([]byte(nil), clean...)
			codewordBit(raw, pageSize, w, b)
			res, err := c.DecodePageInPlace(raw)
			if err != nil {
				t.Fatalf("word %d bit %d: %v", w, b, err)
			}
			if res.Corrected != 1 || !bytes.Equal(res.Data, data) {
				t.Fatalf("word %d bit %d: corrected %d, data restored %v", w, b, res.Corrected, bytes.Equal(res.Data, data))
			}
		}
	}
}

// TestDecodePageDoubleFlipNamesWord flips every pair of codeword bits
// in one word: the page must fail with ErrUncorrectable, wrapped with
// that word's byte offset.
func TestDecodePageDoubleFlipNamesWord(t *testing.T) {
	const pageSize = 64
	c, _ := NewPageCodec(pageSize)
	data := make([]byte, pageSize)
	sim.NewRNG(32).Bytes(data)
	clean, _ := c.EncodePage(data)
	for _, w := range []int{0, 3, pageSize/8 - 1} {
		want := fmt.Sprintf("word at byte %d:", 8*w)
		for b1 := 0; b1 < 72; b1++ {
			for b2 := b1 + 1; b2 < 72; b2++ {
				raw := append([]byte(nil), clean...)
				codewordBit(raw, pageSize, w, b1)
				codewordBit(raw, pageSize, w, b2)
				_, err := c.DecodePageInPlace(raw)
				if !errors.Is(err, ErrUncorrectable) || !strings.Contains(err.Error(), want) {
					t.Fatalf("word %d bits %d,%d: err = %v, want ErrUncorrectable at %q", w, b1, b2, err, want)
				}
			}
		}
	}
}
