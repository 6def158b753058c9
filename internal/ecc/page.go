package ecc

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// PageCodec protects a whole flash page by splitting it into 64-bit
// words, each carrying one SEC-DED check byte stored in the page's
// out-of-band (OOB) area — the layout real NAND controllers use.
//
// The flash read path uses Correct, which decodes only the error
// pattern of a read. EncodePage and DecodePageInPlace materialise and
// decode the whole stored image; they are the reference Correct is
// tested against, and the per-page ECC cost the benchmark reports.
type PageCodec struct {
	pageSize int // data bytes, must be a multiple of 8
}

// NewPageCodec returns a codec for pages of pageSize data bytes.
func NewPageCodec(pageSize int) (*PageCodec, error) {
	if pageSize <= 0 || pageSize%8 != 0 {
		return nil, fmt.Errorf("ecc: page size %d not a positive multiple of 8", pageSize)
	}
	return &PageCodec{pageSize: pageSize}, nil
}

// PageSize returns the protected data size in bytes.
func (c *PageCodec) PageSize() int { return c.pageSize }

// OOBSize returns the number of check bytes per page (one per 8 data
// bytes).
func (c *PageCodec) OOBSize() int { return c.pageSize / 8 }

// StoredSize returns the raw bytes written to flash per page.
func (c *PageCodec) StoredSize() int { return c.pageSize + c.OOBSize() }

// EncodePage appends check bytes to data and returns the raw stored
// image (data || oob). data must be exactly PageSize bytes.
func (c *PageCodec) EncodePage(data []byte) ([]byte, error) {
	if len(data) != c.pageSize {
		return nil, fmt.Errorf("ecc: encode: page is %d bytes, want %d", len(data), c.pageSize)
	}
	out := make([]byte, c.StoredSize())
	copy(out, data)
	oob := out[c.pageSize:]
	for i := 0; i < c.pageSize; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		oob[i/8] = Encode(w)
	}
	return out, nil
}

// DecodeResult reports what page decoding found.
type DecodeResult struct {
	Data      []byte // corrected page data (PageSize bytes)
	Corrected int    // number of single-bit corrections applied
}

// DecodePageInPlace verifies and corrects a raw stored image, writing
// corrections directly into raw's data region and returning it as a
// sub-slice, so the caller must own raw. It returns ErrUncorrectable
// (wrapped, with the word's byte offset) if any word has a double-bit
// error. It is the whole-image reference for Correct.
//
//simlint:hotpath
func (c *PageCodec) DecodePageInPlace(raw []byte) (DecodeResult, error) {
	if len(raw) != c.StoredSize() {
		//simlint:allow hotpath (size-mismatch error path, never taken steady-state)
		return DecodeResult{}, fmt.Errorf("ecc: decode: raw is %d bytes, want %d", len(raw), c.StoredSize())
	}
	data := raw[:c.pageSize]
	oob := raw[c.pageSize:]
	fixed := 0
	for i := 0; i < c.pageSize; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		// A stored check byte equal to the recomputed one means syndrome
		// 0 and even total parity: the word is clean, so Decode is only
		// needed on a mismatch.
		if Encode(w) == oob[i/8] {
			continue
		}
		cw, n, err := Decode(w, oob[i/8])
		if err != nil {
			//simlint:allow hotpath (uncorrectable-read error path, off the steady-state path)
			return DecodeResult{}, fmt.Errorf("word at byte %d: %w", i, err)
		}
		if cw != w {
			binary.LittleEndian.PutUint64(data[i:], cw)
		}
		fixed += n
	}
	return DecodeResult{Data: data, Corrected: fixed}, nil
}

// Correct applies a read's bit errors to a clean page and corrects
// them, returning what DecodePageInPlace returns for the stored image
// (data || EncodePage check bytes) with every bit in flips toggled.
// flips holds bit positions over that image: bit p < 8*PageSize is
// bit p%64 of data word p/64, and the rest are OOB bits, bit p%8 of
// the check byte of word p/8-PageSize. A position listed twice cancels.
//
// Decoding is GF(2)-linear, so only the error pattern matters: for a
// word with data error eD and check error eC, Decode(eD, eC) returns
// the error left after correction (zero unless three or more flips
// miscorrect), the corrected count and ErrUncorrectable, whatever the
// data is. Correct folds flips per word and decodes just those
// patterns, in ascending word order so an uncorrectable page names the
// same first word as the whole-page decode.
//
// page is read-only: Correct returns page itself unless some word keeps
// a residual error, and then a private copy with the residuals applied.
// flips is rewritten and sorted in place; its positions must lie in
// [0, 8*StoredSize()).
//
//simlint:hotpath
func (c *PageCodec) Correct(page []byte, flips []int) ([]byte, int, error) {
	if len(flips) == 0 {
		return page, 0, nil
	}
	// Rewrite each position as word*72 + bit, bits 0..63 data and
	// 64..71 check, so sorting groups the flips of one word.
	dataBits := 8 * c.pageSize
	for i, p := range flips {
		if p < dataBits {
			flips[i] = p/64*72 + p%64
		} else {
			flips[i] = (p/8-c.pageSize)*72 + 64 + p%8
		}
	}
	slices.Sort(flips)
	out, copied := page, false
	fixed := 0
	for i := 0; i < len(flips); {
		w := flips[i] / 72
		var eD uint64
		var eC byte
		for ; i < len(flips) && flips[i]/72 == w; i++ {
			if b := flips[i] % 72; b < 64 {
				eD ^= 1 << uint(b)
			} else {
				eC ^= 1 << uint(b-64)
			}
		}
		if eD == 0 && eC == 0 {
			continue // the word's flips cancel
		}
		cw, n, err := Decode(eD, eC)
		if err != nil {
			//simlint:allow hotpath (uncorrectable-read error path, off the steady-state path)
			return nil, 0, fmt.Errorf("word at byte %d: %w", 8*w, err)
		}
		fixed += n
		if cw == 0 {
			continue // corrected, or only check bits flipped: data intact
		}
		if !copied {
			//simlint:allow hotpath (the private copy of a miscorrected page: the one allocation of Correct, none on a clean or corrected read)
			out = make([]byte, len(page))
			copy(out, page)
			copied = true
		}
		binary.LittleEndian.PutUint64(out[8*w:], binary.LittleEndian.Uint64(out[8*w:])^cw)
	}
	return out, fixed, nil
}

// FlipBit flips bit (bitIndex mod 8) of byte bitIndex/8 in buf, in
// place. Tests use it to materialise a read's flip list on an encoded
// image for the reference decoder.
func FlipBit(buf []byte, bitIndex int) {
	buf[bitIndex/8] ^= 1 << uint(bitIndex%8)
}
