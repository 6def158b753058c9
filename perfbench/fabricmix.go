package main

// fabric-mix: the paper's 20-node rack on the default ring, physical
// pages read and written through sched.Stream with the engine
// benchmark's class mix. Every node's host runs eight closed-loop
// streams addressing the whole cluster:
//
//	0    realtime    uniform reads
//	1, 2 interactive zipfian reads
//	3    interactive uniform reads
//	4, 5 batch       sequential scans
//	6, 7 batch       uniform reads with 30% log-append writes
//
// Reads target the seeded region [0, readPages) of a random node and
// must return the seeded bytes. Writes append to the issuing node's
// own log region behind it, in page order (NAND programs each block's
// pages in order), so no read ever races a write.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

var fabricMix = scenario{
	name:         "fabric-mix",
	round:        2 * sim.Millisecond,
	roundsPerSec: 4.2,
	minRounds:    20,
	warm:         2 * sim.Millisecond,
	build:        buildFabricMix,
}

const (
	fmNodes     = 20
	fmStreams   = 8
	fmDepth     = 4
	fmRTDepth   = 12 // realtime keeps more outstanding, for enough tail samples per stream
	fmReadPages = 480
	fmWriteFrac = 0.3
	fmScanRun   = 64
)

type fmPattern uint8

const (
	fmUniform fmPattern = iota
	fmZipf
	fmScan
	fmMixed
)

type fmBench struct {
	e      *env
	c      *core.Cluster
	expect [][]uint64 // [node][page] hash of the seeded bytes
	zipf   *workload.Zipf
	logs   []*fmLog // per issuing node
	ps     int

	writeFallbacks int64
}

// fmLog is one node's append region and its in-order write sequencer.
type fmLog struct {
	b           *fmBench
	next, limit int
	q           []*fmSlot
	head        int
	stalled     bool
	unstall     func()
}

type fmClient struct {
	b       *fmBench
	id      int
	rtIdx   int
	st      *sched.Stream
	node    int
	pattern fmPattern
	rng     *sim.RNG
	page    []byte // write payload

	scanPos, scanLeft, scanNode int
}

type fmSlot struct {
	cl        *fmClient
	t0        sim.Time
	node, idx int
	addr      core.PageAddr
	read      func([]byte, error)
	wrote     func(error)
	try       func()
}

func buildFabricMix(seed uint64) (*env, error) {
	p := core.DefaultParams(fmNodes)
	p.Geometry.BlocksPerChip = 16
	p.Geometry.PagesPerBlock = 32
	c, err := core.NewCluster(p)
	if err != nil {
		return nil, err
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		return nil, err
	}
	b := &fmBench{c: c, ps: p.PageSize(), zipf: workload.NewZipf(fmReadPages, 0.99)}
	b.expect = make([][]uint64, fmNodes)
	for n := 0; n < fmNodes; n++ {
		exp := make([]uint64, fmReadPages)
		gen := func(idx int, page []byte) {
			sim.NewRNG(seed*0x9e3779b97f4a7c15 ^ uint64(n)<<32 ^ uint64(idx)).Bytes(page)
			exp[idx] = pageHash(page)
		}
		if err := c.SeedLinear(n, fmReadPages, gen); err != nil {
			return nil, fmt.Errorf("seed node %d: %w", n, err)
		}
		b.expect[n] = exp
	}
	// Log regions start at the first whole block row behind the seeded
	// pages (one page row of every block in the stripe, so the region
	// is block-aligned on every chip).
	g := p.Geometry
	blockSpan := g.Buses * g.ChipsPerBus * p.CardsPerNode * g.PagesPerBlock
	base := (fmReadPages + blockSpan - 1) / blockSpan * blockSpan
	for n := 0; n < fmNodes; n++ {
		l := &fmLog{b: b, next: base, limit: core.PagesPerNode(p)}
		l.unstall = func() { l.stalled = false; l.pump() }
		b.logs = append(b.logs, l)
	}

	r := newRec(c.Eng, fmNodes)
	b.e = &env{c: c, s: s, rec: r}
	var slots []*fmSlot
	rt := 0
	for n := 0; n < fmNodes; n++ {
		for i := 0; i < fmStreams; i++ {
			cl := &fmClient{b: b, id: n*fmStreams + i, rtIdx: -1, node: n,
				rng: sim.NewRNG(seed ^ uint64(n*fmStreams+i+1)*0x2545f4914f6cdd1d)}
			class := sched.Batch
			switch i {
			case 0:
				class, cl.pattern, cl.rtIdx = sched.Realtime, fmUniform, rt
				rt++
			case 1, 2:
				class, cl.pattern = sched.Interactive, fmZipf
			case 3:
				class, cl.pattern = sched.Interactive, fmUniform
			case 4, 5:
				cl.pattern = fmScan
			default:
				cl.pattern = fmMixed
				cl.page = make([]byte, b.ps)
				cl.rng.Bytes(cl.page)
			}
			if cl.st, err = s.NewStream(fmt.Sprintf("n%02d-s%d", n, i), n, class); err != nil {
				return nil, err
			}
			depth := fmDepth
			if class == sched.Realtime {
				depth = fmRTDepth
			}
			for d := 0; d < depth; d++ {
				slots = append(slots, newFMSlot(cl))
			}
		}
	}
	for _, sl := range slots {
		sl.issue()
	}
	b.e.check = func() error {
		if b.writeFallbacks > 0 {
			fmt.Printf("fabric-mix: %d writes became reads after a log region filled\n", b.writeFallbacks)
		}
		return nil
	}
	return b.e, nil
}

func newFMSlot(cl *fmClient) *fmSlot {
	b := cl.b
	r := b.e.rec
	s := &fmSlot{cl: cl}
	s.read = func(data []byte, err error) {
		var h uint64
		if err == nil {
			if h = pageHash(data); h != b.expect[s.node][s.idx] {
				r.fail("fabric-mix: read of node %d page %d returned bytes that were never written there", s.node, s.idx)
			} else {
				r.checked()
			}
		}
		r.done(cl.id, cl.rtIdx, spanNone, s.t0, int64(b.ps), h, err)
		s.issue()
	}
	s.wrote = func(err error) {
		r.done(cl.id, cl.rtIdx, spanNone, s.t0, int64(b.ps), uint64(s.idx), err)
		s.issue()
	}
	s.try = func() {
		switch err := cl.st.Read(s.addr, s.read); err {
		case nil:
		case sched.ErrBackpressure:
			b.c.Eng.After(5*sim.Microsecond, s.try)
		default:
			s.read(nil, err)
		}
	}
	return s
}

func (s *fmSlot) issue() {
	cl := s.cl
	b := cl.b
	if b.e.rec.stopped {
		return
	}
	b.e.rec.begin()
	s.t0 = b.c.Eng.Now()
	if cl.pattern == fmMixed && cl.rng.Float64() < fmWriteFrac {
		if l := b.logs[cl.node]; l.next < l.limit {
			s.idx = l.next
			s.addr = core.LinearPage(b.c.Params, cl.node, l.next)
			l.next++
			l.q = append(l.q, s)
			l.pump()
			return
		}
		b.writeFallbacks++
	}
	s.node, s.idx = cl.nextRead()
	s.addr = core.LinearPage(b.c.Params, s.node, s.idx)
	s.try()
}

// nextRead picks the next read's node and page.
func (cl *fmClient) nextRead() (int, int) {
	node := cl.rng.Intn(fmNodes)
	switch cl.pattern {
	case fmZipf:
		return node, cl.b.zipf.Sample(cl.rng)
	case fmScan:
		if cl.scanLeft == 0 {
			cl.scanPos, cl.scanLeft, cl.scanNode = cl.rng.Intn(fmReadPages), fmScanRun, node
		}
		idx := cl.scanPos
		cl.scanPos = (cl.scanPos + 1) % fmReadPages
		cl.scanLeft--
		return cl.scanNode, idx
	default:
		return node, cl.rng.Intn(fmReadPages)
	}
}

// pump admits queued appends strictly in allocation order; on
// backpressure the head waits and nothing behind it overtakes.
func (l *fmLog) pump() {
	for !l.stalled && l.head < len(l.q) {
		s := l.q[l.head]
		err := s.cl.st.Write(s.addr, s.cl.page, s.wrote)
		if err == sched.ErrBackpressure {
			l.stalled = true
			l.b.c.Eng.After(5*sim.Microsecond, l.unstall)
			return
		}
		l.q[l.head] = nil
		l.head++
		if l.head == len(l.q) {
			l.q, l.head = l.q[:0], 0
		}
		if err != nil {
			s.wrote(err)
		}
	}
}
