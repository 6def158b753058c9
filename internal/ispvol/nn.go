package ispvol

// Distributed nearest-neighbor search (paper §7.1 promoted to cluster
// scale): the host-resident LSH index produces a candidate list — item
// ids and the pages holding them — and each engine compares every
// candidate on its node against the query inline, the way the
// single-node accelerator (accel/lsh.RunISP) does. Only each node's
// best candidate crosses the network back to the origin. The Host
// placement hauls every candidate page over PCIe and compares in
// software at accel/lsh's calibrated per-page CPU cost — Figures
// 16/19's software arm, under the same QoS roof as everything else.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/accel/lsh"
	"repro/internal/sim"
)

// NNResult reports one distributed nearest-neighbor query.
type NNResult struct {
	BestID      int
	BestDist    int
	Comparisons int64
	Pages       int
	FailedPages int      // candidate pages whose read failed
	Elapsed     sim.Time // query start to result-in-host-memory
	CmpPerSec   float64
}

func (r *NNResult) stamp(elapsed sim.Time) {
	r.Elapsed = elapsed
	if elapsed > 0 {
		r.CmpPerSec = float64(r.Comparisons) / elapsed.Seconds()
	}
}

// NearestNeighbor runs the ISP nearest-neighbor query on the given
// placement: candidate ids[i] is the item stored at the start of the
// source's i-th page (the LSH index output), and each engine
// Hamming-compares its share next to the flash. Asynchronous like
// Search: done fires once the merged best is in the origin host's
// memory. BestID is -1 (and BestDist -1) when no candidate was
// compared.
//
//simlint:once done
func (sys *System) NearestNeighbor(origin int, src Source, pl Placement, item []byte, ids []int, done func(*NNResult, error)) {
	launch(sys, origin, src, pl, &nnKernel{item: item, ids: ids, best: nnPartial{bestID: -1, bestDist: math.MaxInt}}, done)
}

// nnKernel is the nearest-neighbor query and its merged best.
type nnKernel struct {
	item []byte
	ids  []int // candidate id of each query page
	best nnPartial
}

func (k *nnKernel) prepare(pages, ps int) error {
	if len(k.ids) != pages {
		return fmt.Errorf("ispvol: %d ids but %d pages", len(k.ids), pages)
	}
	if len(k.item) == 0 {
		return errors.New("ispvol: empty query item")
	}
	if len(k.item) > ps {
		return fmt.Errorf("%w: %d-byte item, %d-byte pages", ErrPatternTooLong, len(k.item), ps)
	}
	return nil
}

// startBytes: the query item and an (id, address) pair per candidate.
func (k *nnKernel) startBytes(refs int) int { return 32 + len(k.item) + 20*refs }

func (k *nnKernel) pageCost(int) sim.Time { return lsh.HammingCPUPerPage }

func (k *nnKernel) newPartial() partial {
	return &nnPartial{k: k, bestID: -1, bestDist: math.MaxInt}
}

// nnPartial is the best candidate among its pages.
type nnPartial struct {
	k           *nnKernel
	bestID      int
	bestDist    int
	comparisons int64
}

// nnBetter reports whether (id, d) beats the incumbent under the
// deterministic ordering every arm uses: lowest distance, ties to the
// lowest id — the same rule as lsh.NearestBrute, so all three
// implementations agree even when distances tie.
func nnBetter(d, id, bestDist, bestID int) bool {
	return d < bestDist || (d == bestDist && id < bestID)
}

func (p *nnPartial) fold(qidx int, data []byte) bool {
	// On the Device placement the engine compares at stream rate
	// (hardware Hamming popcount beside the flash): no CPU charge,
	// exactly like lsh.RunISP.
	d := lsh.HammingDistance(p.k.item, data[:len(p.k.item)])
	p.comparisons++
	if id := p.k.ids[qidx]; nnBetter(d, id, p.bestDist, p.bestID) {
		p.bestID, p.bestDist = id, d
	}
	return true
}

func (p *nnPartial) wireBytes() int { return 48 }

func (k *nnKernel) merge(pp partial) {
	p := pp.(*nnPartial)
	k.best.comparisons += p.comparisons
	if p.bestID >= 0 && nnBetter(p.bestDist, p.bestID, k.best.bestDist, k.best.bestID) {
		k.best.bestID, k.best.bestDist = p.bestID, p.bestDist
	}
}

// result reports the best; the (tiny) answer is the result DMA.
func (k *nnKernel) result(t tally) (*NNResult, int) {
	res := &NNResult{
		BestID:      k.best.bestID,
		BestDist:    k.best.bestDist,
		Comparisons: k.best.comparisons,
		Pages:       t.pages,
		FailedPages: t.failed,
	}
	if res.BestID < 0 {
		res.BestDist = -1
	}
	return res, 16
}
