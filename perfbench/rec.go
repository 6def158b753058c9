package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// span names one per-layer latency series the traced run records
// around the benchmark's own calls into a layer's public function.
type span int

const (
	spanNone      span = iota
	spanVolRead        // volume.Stream.Read
	spanVolWrite       // volume.Stream.Write
	spanCacheRead      // cache.Stream.Read
	spanRFSRead        // rfs.File.ReadPage
	spanDevQuery       // ispvol.SearchFile (device placement)
	spanHostQuery      // ispvol.SearchFileHost (host-mediated)
	numSpans
)

// rec collects every client completion in the measured window: a
// fixed stretch of virtual time, so everything it records except host
// time repeats exactly for a seed, however fast the host is.
type rec struct {
	eng *sim.Engine

	// stopped tells clients to issue nothing new (end of the run).
	stopped bool
	// counting is true while the measured window is open.
	counting bool
	// traceOn records per-layer spans.
	traceOn bool

	outstanding int64 // operations issued whose completion has not fired
	ops, failed int64
	bytes       int64 // bytes read and written by clients, plus bytes scanned by queries
	rt          []float64
	rtFailed    int64
	rtPerStream []int64 // realtime completions per realtime stream
	digest      uint64
	spans       [numSpans][]float64
	spanBytes   [numSpans]int64 // bytes scanned per query span
	spanElapse  [numSpans]sim.Time

	firstErr   error // first failed operation
	checkErr   error // first failed output check
	checkCount int64 // output checks performed
}

func newRec(eng *sim.Engine, realtimeStreams int) *rec {
	return &rec{eng: eng, rtPerStream: make([]int64, realtimeStreams), digest: 0xcbf29ce484222325}
}

// mix folds one value into the run digest (FNV-1a over 64-bit words).
func (r *rec) mix(v uint64) {
	r.digest = (r.digest ^ v) * 0x100000001b3
}

// done records one completed client operation. client identifies the
// issuing client for the digest; rtIdx is its realtime stream, or -1;
// t0 is when the client first called into the stack; result is a
// checksum of the operation's output (0 when none).
func (r *rec) done(client int, rtIdx int, sp span, t0 sim.Time, bytes int64, result uint64, err error) {
	r.outstanding--
	if !r.counting {
		return
	}
	now := r.eng.Now()
	lat := (now - t0).Micros()
	r.ops++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("client %d at %v: %w", client, now, err)
		}
		r.mix(1)
	} else {
		r.bytes += bytes
	}
	if rtIdx >= 0 {
		r.rtPerStream[rtIdx]++
		if err != nil {
			r.rtFailed++
		} else {
			r.rt = append(r.rt, lat)
		}
	}
	if r.traceOn && sp != spanNone {
		r.spans[sp] = append(r.spans[sp], lat)
	}
	r.mix(uint64(client))
	r.mix(uint64(now))
	r.mix(uint64(now - t0))
	r.mix(result)
}

// begin counts one operation a client issues; done retires it.
func (r *rec) begin() { r.outstanding++ }

// fail records a failed output check; the run then reports incorrect.
func (r *rec) fail(format string, args ...any) {
	if r.checkErr == nil {
		r.checkErr = fmt.Errorf(format, args...)
	}
}

// checked counts one output check that passed.
func (r *rec) checked() { r.checkCount++ }

// pageHash is a cheap 64-bit checksum of a page, used both to verify
// read data and to fold results into the run digest. Every step is a
// bijection of the lane state for a fixed word and of the word for a
// fixed state, so a change to any single word always changes the
// result. Four independent lanes keep the multiplier busy.
func pageHash(b []byte) uint64 {
	const k0, k1, k2, k3 = 0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53, 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h0, h1, h2, h3 := uint64(len(b)), uint64(1), uint64(2), uint64(3)
	i := 0
	for ; i+32 <= len(b); i += 32 {
		h0 = bits.RotateLeft64(h0^binary.LittleEndian.Uint64(b[i:]), 29) * k0
		h1 = bits.RotateLeft64(h1^binary.LittleEndian.Uint64(b[i+8:]), 29) * k1
		h2 = bits.RotateLeft64(h2^binary.LittleEndian.Uint64(b[i+16:]), 29) * k2
		h3 = bits.RotateLeft64(h3^binary.LittleEndian.Uint64(b[i+24:]), 29) * k3
	}
	for ; i < len(b); i++ {
		h0 = bits.RotateLeft64(h0^uint64(b[i]), 29) * k0
	}
	h := h0
	for _, x := range [...]uint64{h1, h2, h3} {
		h = bits.RotateLeft64(h^x, 29) * k0
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h ^ h>>29
}

// percentile returns the p-th percentile (0..100) of samples plus
// `above` extra samples that lie above every latency (failed or
// refused operations), by the nearest-rank rule. sorted must be
// ascending.
func percentile(sorted []float64, above int64, p float64) float64 {
	n := int64(len(sorted)) + above
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > int64(len(sorted)) {
		return math.Inf(1)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
