package search

// Distributed-scan support: the striped logical volume puts adjacent
// logical pages on different cards — usually different NODES — so the
// per-node engines of a distributed search each see a non-contiguous
// subset of the haystack. Every engine scans its pages independently
// (a fresh scan per page, which finds exactly the matches fully inside
// a page), and ships the page-boundary residues — the first and
// last len(needle)-1 bytes of each page — to the origin alongside its
// match offsets. The origin then stitches each page junction from the
// two residues and scans it for the straddling matches no single
// engine could see. Residues are tiny (2·(m-1) bytes per page), so
// this preserves the ISP property that only match positions plus a
// trickle of metadata ever leave the storage device.

import "bytes"

// junctionStack is the tail‖head size a junction stitch assembles
// without touching the heap: needles up to junctionStack/2+1 bytes.
const junctionStack = 256

// EdgeLen returns the page-boundary residue length for this pattern:
// the longest prefix/suffix of a page a straddling match can overlap.
func (p *Pattern) EdgeLen() int { return len(p.needle) - 1 }

// EdgeBytes extracts one page's boundary residues: its first and last
// EdgeLen bytes (the whole page when shorter). The returned slices
// alias page; callers that retain them across page-buffer reuse must
// copy.
func (p *Pattern) EdgeBytes(page []byte) (head, tail []byte) {
	n := p.EdgeLen()
	if n <= 0 {
		return nil, nil
	}
	if n > len(page) {
		n = len(page)
	}
	return page[:n], page[len(page)-n:]
}

// AppendPageMatches appends base+i to dst for every offset i at which
// the needle occurs in page, overlapping occurrences included, in
// increasing order. It finds the same matches as a Scanner reset to
// base and fed page alone. Each search resumes one byte past the
// previous hit, which is what finds overlapping matches.
//
//simlint:hotpath
func (p *Pattern) AppendPageMatches(dst []int64, page []byte, base int64) []int64 {
	for i := 0; i < len(page); i++ {
		j := bytes.Index(page[i:], p.needle)
		if j < 0 {
			break
		}
		i += j
		//simlint:allow hotpath (caller-owned dst: grows only past the capacity the caller's persistent match list retains)
		dst = append(dst, base+int64(i))
	}
	return dst
}

// AppendJunctionMatches scans the boundary between two adjacent pages
// given the left page's tail residue and the right page's head
// residue, and appends to dst the absolute start offsets of matches
// that STRADDLE the boundary (at absolute offset `boundary`). Matches
// fully inside either page are found by that page's engine and
// excluded here, so the union of per-page and junction matches is
// exact and duplicate-free.
//
//simlint:hotpath
func (p *Pattern) AppendJunctionMatches(dst []int64, tail, head []byte, boundary int64) []int64 {
	n := p.EdgeLen()
	if n <= 0 {
		return dst // a 1-byte needle cannot straddle a boundary
	}
	// A straddler starts in the left page's last n bytes and ends in
	// the right page's first n bytes. With both sides cut to at most n
	// bytes, neither holds a whole match, so every match in tail‖head
	// straddles.
	if len(tail) > n {
		tail = tail[len(tail)-n:]
	}
	if len(head) > n {
		head = head[:n]
	}
	var buf [junctionStack]byte
	joined := buf[:0]
	joined = append(joined, tail...)
	joined = append(joined, head...)
	return p.AppendPageMatches(dst, joined, boundary-int64(len(tail)))
}
