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

// lin16[j][v] is Encode of the word whose 16-bit lane j holds v and
// whose other lanes are zero. The check byte is GF(2)-linear in the
// data word — the syndrome is the XOR of dataPos over the set bits,
// and the overall parity is the data parity XOR the syndrome parity —
// so Encode(a^b) == Encode(a)^Encode(b), and a word's check byte is
// the XOR of its four lane entries. The table is a package-level
// array, so it lives in static data rather than on the heap.
var lin16 [4][65536]byte

func init() {
	for j := range lin16 {
		for v := 1; v < 65536; v++ {
			// Peel off the lowest set bit: the rest of v has an entry
			// already, and the bit alone is one data position.
			low := bits.TrailingZeros16(uint16(v))
			p := dataPos[16*j+low]
			bit := byte(p) | byte(1^bits.OnesCount8(uint8(p))&1)<<7
			lin16[j][v] = lin16[j][v&(v-1)] ^ bit
		}
	}
}

// Encode computes the 8 check bits for a 64-bit data word. The returned
// byte has the 7 Hamming syndrome bits in bits 0..6 and the overall
// parity in bit 7. It is four table lookups, so the compiler inlines
// it into the per-word page loops, where it runs on every word of
// every flash program and read.
//
//simlint:hotpath
func Encode(data uint64) byte {
	return lin16[0][uint16(data)] ^
		lin16[1][uint16(data>>16)] ^
		lin16[2][uint16(data>>32)] ^
		lin16[3][uint16(data>>48)]
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
