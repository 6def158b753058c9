package main

// cache-hot: the host-DRAM write-back cache above a 4-node volume,
// sized to hold 90% of a skewed hot set (90% of reads go to an eighth
// of the volume).
// Realtime readers on every node run alongside one writer per node;
// the writers overwrite disjoint pages of the shared hot set, so
// flushes and cross-node invalidations run.
//
// Coherence is last-flusher-wins on flash visibility: a reader on the
// writer's node sees every acknowledged write at once, a reader on
// another node may see an older version until the flush lands. So a
// read of a page owned by the reader's own node must hold the last
// acknowledged version (when no write to it overlapped the read), and
// any other read must hold some version written to that page.

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

var cacheHot = scenario{
	name:         "cache-hot",
	round:        20 * sim.Millisecond,
	roundsPerSec: 12.5,
	minRounds:    5,
	warm:         40 * sim.Millisecond,
	build:        func(seed uint64) (*env, error) { return buildCacheHot(seed, false) },
}

// cacheTier is cache-hot with cold-page demotion on. It is not one of
// the benchmark's measured workloads: its coherence check fails on
// some seeds (seed 25 at -seconds 12, for one). A page demoted to the
// alternate store is overwritten in its writer's DRAM; a reader on
// another node misses, reads the stale copy back from the alternate
// store and promotes it dirty; that stale copy is flushed after the
// writer's, and the writer's own node then reads the old version.
// The workload stays here to reproduce that until it is fixed.
var cacheTier = scenario{
	name:         "cache-tier",
	round:        cacheHot.round,
	roundsPerSec: cacheHot.roundsPerSec,
	minRounds:    cacheHot.minRounds,
	warm:         cacheHot.warm,
	build:        func(seed uint64) (*env, error) { return buildCacheHot(seed, true) },
}

const (
	chNodes          = 4
	chReadersPerNode = 2
	chReaderDepth    = 4
	chHotDivisor     = 8
	chHotFrac        = 0.9
	chCapacityFrac   = 0.9
	// chWriterThink is each writer's mean pause between writes. A write
	// is acknowledged from host DRAM in well under a microsecond, so a
	// writer without one would only overwrite its own frames.
	chWriterThink = 200 * sim.Microsecond
)

type chBench struct {
	e   *env
	ref *vpages
	ps  int
	hot int
}

type chClient struct {
	b     *chBench
	id    int
	rtIdx int
	node  int
	st    *cache.Stream
	rng   *sim.RNG
	write bool
	buf   []byte

	t0     sim.Time
	lpn    int
	ver    uint32
	rs     readStart
	strict bool
	read   func([]byte, error)
	done   func(error)
	next   func()
}

func buildCacheHot(seed uint64, tier bool) (*env, error) {
	p := core.DefaultParams(chNodes)
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 2
	p.Geometry.PagesPerBlock = 32
	c, err := core.NewCluster(p)
	if err != nil {
		return nil, err
	}
	scfg := sched.DefaultConfig()
	scfg.MaxInflight, scfg.BatchSize = 16, 16
	s, err := sched.New(c, scfg)
	if err != nil {
		return nil, err
	}
	vcfg := volume.DefaultConfig()
	vcfg.FTL = ftl.DefaultConfig()
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		return nil, err
	}
	pages := v.Pages()
	b := &chBench{ps: p.PageSize(), ref: newVPages(pages, p.PageSize(), seed), hot: pages / chHotDivisor}
	if err := seedVersions(c, v, b.ref); err != nil {
		return nil, err
	}
	ccfg := cache.DefaultConfig(int(chCapacityFrac * float64(b.hot)))
	if tier {
		ccfg.Tier = cache.DefaultTier()
	}
	ca, err := cache.New(c, v, ccfg)
	if err != nil {
		return nil, err
	}

	r := newRec(c.Eng, chNodes*chReadersPerNode)
	b.e = &env{c: c, s: s, v: v, ca: ca, rec: r}
	var clients []*chClient
	id := 0
	for n := 0; n < chNodes; n++ {
		for i := 0; i < chReadersPerNode; i++ {
			rt := n*chReadersPerNode + i
			st, err := ca.NewStream(fmt.Sprintf("rt-n%d-%d", n, i), n, sched.Realtime)
			if err != nil {
				return nil, err
			}
			for d := 0; d < chReaderDepth; d++ {
				clients = append(clients, b.newClient(id, rt, n, st, false, seed))
				id++
			}
		}
		st, err := ca.NewStream(fmt.Sprintf("wr-n%d", n), n, sched.Interactive)
		if err != nil {
			return nil, err
		}
		clients = append(clients, b.newClient(id, -1, n, st, true, seed))
		id++
	}
	for _, cl := range clients {
		cl.issue()
	}
	// The final read-back goes through each page's owner node, where the
	// last acknowledged write is visible whether or not it was flushed.
	verify := make([]*cache.Stream, chNodes)
	for n := range verify {
		if verify[n], err = ca.NewStream(fmt.Sprintf("verify-n%d", n), n, sched.Batch); err != nil {
			return nil, err
		}
	}
	b.e.check = func() error {
		return verifyAll(c, b.ref, func(lpn int, cb func([]byte, error)) { verify[lpn%chNodes].Read(lpn, cb) })
	}
	return b.e, nil
}

func (b *chBench) newClient(id, rtIdx, node int, st *cache.Stream, write bool, seed uint64) *chClient {
	cl := &chClient{b: b, id: id, rtIdx: rtIdx, node: node, st: st, write: write,
		rng: sim.NewRNG(seed ^ uint64(id+1)*0xbf58476d1ce4e5b9)}
	r := b.e.rec
	if write {
		cl.buf = make([]byte, b.ps)
		cl.next = cl.issue
		cl.done = func(err error) {
			b.ref.endWrite(cl.lpn, cl.ver, err)
			r.done(cl.id, -1, spanNone, cl.t0, int64(b.ps), uint64(cl.lpn)<<32|uint64(cl.ver), err)
			think := sim.Time(-math.Log(1-cl.rng.Float64()) * float64(chWriterThink))
			b.e.c.Eng.After(max(think, sim.Nanosecond), cl.next)
		}
		return cl
	}
	cl.read = func(data []byte, err error) {
		var ver uint32
		if err == nil {
			var ok bool
			if ver, ok = b.ref.verify(data, cl.lpn, cl.rs, cl.strict); !ok {
				r.fail("node %d read page %d: version %d, last acknowledged %d",
					cl.node, cl.lpn, ver, b.ref.acked[cl.lpn])
			} else {
				r.checked()
			}
		}
		r.done(cl.id, cl.rtIdx, spanCacheRead, cl.t0, int64(b.ps), uint64(cl.lpn)<<32|uint64(ver), err)
		cl.issue()
	}
	return cl
}

func (cl *chClient) issue() {
	b := cl.b
	if b.e.rec.stopped {
		return
	}
	b.e.rec.begin()
	cl.t0 = b.e.c.Eng.Now()
	if cl.write {
		// The writer on node n owns the hot pages congruent to n.
		owned := (b.hot - cl.node + chNodes - 1) / chNodes
		for {
			cl.lpn = cl.node + chNodes*cl.rng.Intn(owned)
			if !b.ref.inflight[cl.lpn] {
				break
			}
		}
		cl.ver = b.ref.beginWrite(cl.lpn)
		b.ref.fill(cl.buf, cl.lpn, cl.ver)
		cl.st.Write(cl.lpn, cl.buf, cl.done)
		return
	}
	if cl.rng.Float64() < chHotFrac {
		cl.lpn = cl.rng.Intn(b.hot)
	} else {
		cl.lpn = cl.rng.Intn(len(b.ref.issued))
	}
	cl.strict = cl.lpn >= b.hot || cl.lpn%chNodes == cl.node
	cl.rs = b.ref.readStart(cl.lpn)
	cl.st.Read(cl.lpn, cl.read)
}
