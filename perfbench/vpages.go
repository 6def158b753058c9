package main

import (
	"encoding/binary"

	"repro/internal/sim"
)

// vpages is the reference model for workloads that overwrite pages:
// every write of a logical page carries a new version, and a page's
// bytes are a function of (page, version) that a reader can verify
// from the bytes alone. Writers own disjoint pages and never have two
// writes to one page in flight, so "the last acknowledged write" is
// always well defined.
//
// Page layout: bytes [0,8) the page number, [8,16) the version, the
// rest one of a few seeded random bodies chosen by (page + version).
type vpages struct {
	bodies   [][]byte
	bodyHash []uint64
	issued   []uint32 // highest version handed to a writer
	acked    []uint32 // version of the last acknowledged write
	inflight []bool
}

const vpBodies = 16

func newVPages(pages, pageSize int, seed uint64) *vpages {
	v := &vpages{
		issued:   make([]uint32, pages),
		acked:    make([]uint32, pages),
		inflight: make([]bool, pages),
	}
	rng := sim.NewRNG(seed ^ 0x76706167)
	for i := 0; i < vpBodies; i++ {
		b := make([]byte, pageSize)
		rng.Bytes(b)
		v.bodies = append(v.bodies, b)
		v.bodyHash = append(v.bodyHash, pageHash(b[16:]))
	}
	return v
}

// fill writes version ver of page lpn into buf.
func (v *vpages) fill(buf []byte, lpn int, ver uint32) {
	copy(buf[16:], v.bodies[(lpn+int(ver))%vpBodies][16:])
	binary.LittleEndian.PutUint64(buf, uint64(lpn))
	binary.LittleEndian.PutUint64(buf[8:], uint64(ver))
}

// beginWrite hands out the next version of lpn.
func (v *vpages) beginWrite(lpn int) uint32 {
	v.issued[lpn]++
	v.inflight[lpn] = true
	return v.issued[lpn]
}

func (v *vpages) endWrite(lpn int, ver uint32, err error) {
	v.inflight[lpn] = false
	if err == nil {
		v.acked[lpn] = ver
	}
}

// readStart is what a reader notes when it issues a read of lpn.
type readStart struct {
	issued uint32
	quiet  bool // no write to the page was in flight
}

func (v *vpages) readStart(lpn int) readStart {
	return readStart{issued: v.issued[lpn], quiet: !v.inflight[lpn]}
}

// verify checks bytes read from lpn. Every read must hold some version
// of lpn that was handed to a writer; when strict and no write touched
// the page between the read's issue and its completion, it must hold
// exactly the last acknowledged version. It returns the version seen.
func (v *vpages) verify(data []byte, lpn int, rs readStart, strict bool) (uint32, bool) {
	if len(data) < 16 || binary.LittleEndian.Uint64(data) != uint64(lpn) {
		return 0, false
	}
	ver64 := binary.LittleEndian.Uint64(data[8:])
	if ver64 > uint64(v.issued[lpn]) {
		return 0, false
	}
	ver := uint32(ver64)
	if pageHash(data[16:]) != v.bodyHash[(lpn+int(ver))%vpBodies] {
		return ver, false
	}
	if strict && rs.quiet && v.issued[lpn] == rs.issued && ver != v.acked[lpn] {
		return ver, false
	}
	return ver, true
}
