// Package ecc implements the bit-error correction performed by the
// BlueDBM flash controller (the ECC encoder/decoder pair of paper
// Table 1). It provides a SEC-DED extended Hamming(72,64) code over
// 64-bit words and a page-level codec that protects whole flash pages,
// so the rest of the system sees "logical error-free access into
// flash" (paper §5.1).
package ecc

import (
	"errors"
	"math/bits"
)

// ErrUncorrectable reports a detected double-bit error (or worse) that
// SEC-DED cannot repair.
var ErrUncorrectable = errors.New("ecc: uncorrectable error")

// Code word layout: 72 bits = 64 data bits + 7 Hamming check bits + 1
// overall parity bit. Internally, bits occupy Hamming positions 1..71
// with check bits at the power-of-two positions (1,2,4,8,16,32,64) and
// data bits filling the rest; position 0 holds the overall parity.

// dataPos[i] is the Hamming position (1..71) of data bit i.
var dataPos = buildDataPositions()

// posData[p] is the data-bit index stored at Hamming position p, or -1
// for check-bit positions.
var posData = buildPosData()

func buildDataPositions() [64]int {
	var out [64]int
	i := 0
	for p := 1; p <= 71 && i < 64; p++ {
		if p&(p-1) == 0 { // power of two: check bit
			continue
		}
		out[i] = p
		i++
	}
	if i != 64 {
		panic("ecc: internal: wrong number of data positions")
	}
	return out
}

func buildPosData() [72]int {
	var out [72]int
	for p := range out {
		out[p] = -1
	}
	for i, p := range dataPos {
		out[p] = i
	}
	return out
}

// encTab[j][b] is the contribution of byte j of the data word holding
// value b: the XOR of dataPos for its set bits in bits 0..6 (syndrome
// positions are < 128) and the byte's parity in bit 7. XORing the
// eight entries therefore yields the whole word's Hamming syndrome
// and data parity in one pass — the encoder runs per flash page word
// on every program AND every read (Decode recomputes it), so this
// table is the single hottest path in the simulator.
var encTab = buildEncTab()

func buildEncTab() [8][256]byte {
	var tab [8][256]byte
	for j := 0; j < 8; j++ {
		for b := 0; b < 256; b++ {
			syndrome := 0
			parity := 0
			for k := 0; k < 8; k++ {
				if b>>uint(k)&1 == 1 {
					syndrome ^= dataPos[8*j+k]
					parity ^= 1
				}
			}
			tab[j][b] = byte(syndrome) | byte(parity)<<7
		}
	}
	return tab
}

// checkTab maps the XOR of a word's eight encTab entries (syndrome in
// bits 0..6, data parity in bit 7) to its check byte: the check bits at
// power-of-two positions are exactly the syndrome bits, and each set
// check bit also contributes to the overall parity.
var checkTab = buildCheckTab()

func buildCheckTab() [256]byte {
	var tab [256]byte
	for t := range tab {
		syndrome := byte(t) & 0x7f
		parity := byte(t>>7) ^ byte(bits.OnesCount8(syndrome)&1)
		tab[t] = syndrome | parity<<7
	}
	return tab
}

// Encode computes the 8 check bits for a 64-bit data word. The returned
// byte has the 7 Hamming syndrome bits in bits 0..6 and the overall
// parity in bit 7. It is table lookups only, so the compiler inlines
// it into the per-word page loops.
//
//simlint:hotpath
func Encode(data uint64) byte {
	return checkTab[encTab[0][byte(data)]^
		encTab[1][byte(data>>8)]^
		encTab[2][byte(data>>16)]^
		encTab[3][byte(data>>24)]^
		encTab[4][byte(data>>32)]^
		encTab[5][byte(data>>40)]^
		encTab[6][byte(data>>48)]^
		encTab[7][byte(data>>56)]]
}

// Decode checks a received (data, check) pair, correcting a single
// flipped bit anywhere in the 72-bit code word (data, check, or parity
// bit). It returns the corrected data and the number of corrected bits
// (0 or 1). A double-bit error returns ErrUncorrectable.
//
//simlint:hotpath
func Decode(data uint64, check byte) (corrected uint64, fixed int, err error) {
	// Syndrome: recomputed Hamming check bits XOR received check bits.
	syndrome := int(Encode(data)^check) & 0x7f

	// Overall parity of the received 72-bit codeword. A valid codeword
	// has even total parity; odd parity pinpoints a single-bit error.
	totalParity := parity64(data) ^ int(popcount8(check)&1)

	switch {
	case syndrome == 0 && totalParity == 0:
		return data, 0, nil
	case totalParity == 1:
		if syndrome == 0 {
			// The overall parity bit itself flipped; data is intact.
			return data, 1, nil
		}
		// Single-bit error at a Hamming position past the codeword
		// (syndrome 72..127): only a multi-bit error produces it, so
		// report it uncorrectable. Static sentinel — this runs on the
		// per-word read path and must not allocate.
		if syndrome > 71 {
			return data, 0, ErrUncorrectable
		}
		if di := posData[syndrome]; di >= 0 {
			return data ^ 1<<uint(di), 1, nil
		}
		// A check bit flipped; data is intact.
		return data, 1, nil
	default:
		// Non-zero syndrome with even overall parity: double-bit error.
		return data, 0, ErrUncorrectable
	}
}

// parity64 returns the XOR of all bits of v.
func parity64(v uint64) int {
	return bits.OnesCount64(v) & 1
}

// popcount8 counts set bits in a byte.
func popcount8(b byte) int {
	return bits.OnesCount8(b)
}
