package ispvol

// Distributed string search (paper §7.3 ported to the cluster): each
// engine scans its pages with Morris-Pratt at line rate (simulated by
// search.Pattern.AppendPageMatches, which finds the same matches), and
// only match offsets plus tiny page-edge residues return to the
// origin, which stitches the page junctions no single engine could
// see (adjacent pages of a striped volume or file live on different
// nodes).

import (
	"fmt"
	"sort"

	"repro/internal/accel/search"
	"repro/internal/rfs"
	"repro/internal/sim"
)

// SearchResult reports one distributed search query.
type SearchResult struct {
	// Matches holds the byte offsets of every occurrence, relative to
	// the start of the query's first page, sorted.
	Matches     []int64
	Pages       int
	FailedPages int      // pages whose read failed (their matches are lost)
	Bytes       int64    // haystack bytes scanned
	Elapsed     sim.Time // query start to merged-result-in-host-memory
	Throughput  float64  // bytes/second
}

func (r *SearchResult) stamp(elapsed sim.Time) {
	r.Elapsed = elapsed
	if elapsed > 0 {
		r.Throughput = float64(r.Bytes) / elapsed.Seconds()
	}
}

// Search runs the ISP-F string search for needle over the source's
// pages, originating (and merging) at node origin, on the given
// placement. It is asynchronous: done fires in virtual time once the
// sorted match list is in the origin host's memory; the caller drives
// the engine (Cluster.Run or an enclosing workload window). A needle
// longer than a page fails with ErrPatternTooLong.
//
//simlint:once done
func (sys *System) Search(origin int, src Source, pl Placement, needle []byte, done func(*SearchResult, error)) {
	launch(sys, origin, src, pl, &searchKernel{needle: needle}, done)
}

// SearchFile is Search over every page of a cluster RFS file on the
// Device placement.
//
//simlint:once done
func (sys *System) SearchFile(origin int, f *rfs.File, needle []byte, done func(*SearchResult, error)) {
	sys.Search(origin, File(f), Device, needle, done)
}

// SearchFileHost is Search over every page of a cluster RFS file on
// the Host placement.
//
//simlint:once done
func (sys *System) SearchFileHost(origin int, f *rfs.File, needle []byte, done func(*SearchResult, error)) {
	sys.Search(origin, File(f), Host, needle, done)
}

// searchKernel is the search query; heads/tails collect every page's
// edge residues at the origin, indexed by query page.
type searchKernel struct {
	needle       []byte
	pat          *search.Pattern
	ps           int
	matches      []int64
	heads, tails [][]byte
}

func (k *searchKernel) prepare(pages, ps int) error {
	if len(k.needle) > ps {
		return fmt.Errorf("%w: %d-byte needle, %d-byte pages", ErrPatternTooLong, len(k.needle), ps)
	}
	pat, err := search.Compile(k.needle)
	if err != nil {
		return err
	}
	k.pat, k.ps = pat, ps
	k.heads, k.tails = make([][]byte, pages), make([][]byte, pages)
	return nil
}

// startBytes: the compiled pattern (needle + Morris-Pratt failure
// table) and the address list.
func (k *searchKernel) startBytes(refs int) int {
	return 32 + len(k.needle) + 4*(len(k.needle)+1) + 16*refs
}

func (k *searchKernel) pageCost(ps int) sim.Time {
	return sim.Time(ps) * search.GrepCPUPerByte * sim.Nanosecond
}

func (k *searchKernel) newPartial() partial {
	return &searchPartial{k: k}
}

// searchPartial holds in-page matches and the edge residues of every
// folded page.
type searchPartial struct {
	k       *searchKernel
	matches []int64
	edges   []edge
}

// edge is one page's head and tail residues, for the origin's junction
// stitch; both share one allocation.
type edge struct {
	qidx       int
	head, tail []byte
}

func (p *searchPartial) fold(qidx int, data []byte) bool {
	// Per-page scan: a partial's pages are not adjacent in query
	// order, so only matches fully inside a page are found here;
	// straddlers are the origin's junction pass.
	p.matches = p.k.pat.AppendPageMatches(p.matches, data, int64(qidx)*int64(p.k.ps))
	h, t := p.k.pat.EdgeBytes(data)
	buf := append(append(make([]byte, 0, len(h)+len(t)), h...), t...)
	p.edges = append(p.edges, edge{qidx: qidx, head: buf[:len(h)], tail: buf[len(h):]})
	return true
}

func (p *searchPartial) wireBytes() int {
	size := 32 + 8*len(p.matches) + 4*len(p.edges)
	for _, e := range p.edges {
		size += len(e.head) + len(e.tail)
	}
	return size
}

func (k *searchKernel) merge(pp partial) {
	p := pp.(*searchPartial)
	k.matches = append(k.matches, p.matches...)
	for _, e := range p.edges {
		k.heads[e.qidx], k.tails[e.qidx] = e.head, e.tail
	}
}

// result stitches the page junctions from the collected edge residues
// and sorts the matches; the match list is the result DMA.
func (k *searchKernel) result(t tally) (*SearchResult, int) {
	for b := 1; b < t.pages; b++ {
		k.matches = k.pat.AppendJunctionMatches(k.matches, k.tails[b-1], k.heads[b], int64(b)*int64(k.ps))
	}
	sort.Slice(k.matches, func(i, j int) bool { return k.matches[i] < k.matches[j] })
	return &SearchResult{
		Matches:     k.matches,
		Pages:       t.pages,
		FailedPages: t.failed,
		Bytes:       int64(t.pages) * int64(t.ps),
	}, 8 * len(k.matches)
}
