package main

// volume-churn: a mirrored volume over 4 nodes, filled to its logical
// capacity, with batch writers overwriting live pages as fast as the
// appliance takes them, so every card's FTL garbage-collects at steady
// state. Realtime point readers share the appliance and verify every
// page they read against the reference model. No cache: the working
// set is the whole volume.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

var volumeChurn = scenario{
	name:         "volume-churn",
	round:        50 * sim.Millisecond,
	roundsPerSec: 21,
	minRounds:    10,
	warm:         100 * sim.Millisecond,
	build:        buildVolumeChurn,
}

const (
	vcNodes       = 4
	vcWriters     = 8
	vcWriterDepth = 4
	vcReaders     = 4
	vcReaderDepth = 1
)

type vcBench struct {
	e   *env
	ref *vpages
	ps  int
}

// vcClient is one closed-loop slot of a reader or a writer.
type vcClient struct {
	b     *vcBench
	id    int
	rtIdx int // readers only
	st    *volume.Stream
	rng   *sim.RNG
	write bool
	buf   []byte

	t0   sim.Time
	lpn  int
	ver  uint32
	rs   readStart
	read func([]byte, error)
	done func(error)
}

func buildVolumeChurn(seed uint64) (*env, error) {
	p := core.DefaultParams(vcNodes)
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 32
	c, err := core.NewCluster(p)
	if err != nil {
		return nil, err
	}
	scfg := sched.DefaultConfig()
	// The dispatcher owns the device window, so class priority and the
	// GC token budget act (the GC experiment's setting).
	scfg.MaxInflight, scfg.BatchSize = 16, 16
	s, err := sched.New(c, scfg)
	if err != nil {
		return nil, err
	}
	vcfg := volume.DefaultConfig()
	vcfg.FTL = ftl.Config{OverProvision: 0.25, GCLowWater: 4, WearLevelEvery: 64, GCPipeline: 16}
	vcfg.Mirror = true
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		return nil, err
	}
	b := &vcBench{ps: p.PageSize(), ref: newVPages(v.Pages(), p.PageSize(), seed)}
	if err := seedVersions(c, v, b.ref); err != nil {
		return nil, err
	}

	r := newRec(c.Eng, vcReaders)
	b.e = &env{c: c, s: s, v: v, rec: r}
	var clients []*vcClient
	for w := 0; w < vcWriters; w++ {
		st, err := v.NewStream(fmt.Sprintf("churn%d", w), sched.Batch)
		if err != nil {
			return nil, err
		}
		for d := 0; d < vcWriterDepth; d++ {
			clients = append(clients, b.newClient(w, -1, st, true,
				sim.NewRNG(seed^uint64(w*vcWriterDepth+d+1)*0x9e3779b97f4a7c15)))
		}
	}
	for i := 0; i < vcReaders; i++ {
		st, err := v.NewStream(fmt.Sprintf("rt%d", i), sched.Realtime)
		if err != nil {
			return nil, err
		}
		for d := 0; d < vcReaderDepth; d++ {
			id := i*vcReaderDepth + d
			clients = append(clients, b.newClient(vcWriters*vcWriterDepth+id, i, st, false,
				sim.NewRNG(seed^uint64(id+1)*0xd1b54a32d192ed03)))
		}
	}
	for _, cl := range clients {
		cl.issue()
	}
	verify, err := v.NewStream("verify", sched.Batch)
	if err != nil {
		return nil, err
	}
	b.e.check = func() error { return verifyAll(c, b.ref, verify.Read) }
	return b.e, nil
}

func (b *vcBench) newClient(id, rtIdx int, st *volume.Stream, write bool, rng *sim.RNG) *vcClient {
	cl := &vcClient{b: b, id: id, rtIdx: rtIdx, st: st, rng: rng, write: write}
	r := b.e.rec
	if write {
		cl.buf = make([]byte, b.ps)
		cl.done = func(err error) {
			b.ref.endWrite(cl.lpn, cl.ver, err)
			r.done(cl.id, -1, spanVolWrite, cl.t0, int64(b.ps), uint64(cl.lpn)<<32|uint64(cl.ver), err)
			cl.issue()
		}
	} else {
		cl.read = func(data []byte, err error) {
			var ver uint32
			if err == nil {
				var ok bool
				if ver, ok = b.ref.verify(data, cl.lpn, cl.rs, true); !ok {
					r.fail("volume-churn: read of page %d returned version %d, last acknowledged %d", cl.lpn, ver, b.ref.acked[cl.lpn])
				} else {
					r.checked()
				}
			}
			r.done(cl.id, cl.rtIdx, spanVolRead, cl.t0, int64(b.ps), uint64(cl.lpn)<<32|uint64(ver), err)
			cl.issue()
		}
	}
	return cl
}

func (cl *vcClient) issue() {
	b := cl.b
	if b.e.rec.stopped {
		return
	}
	b.e.rec.begin()
	cl.t0 = b.e.c.Eng.Now()
	pages := len(b.ref.issued)
	if !cl.write {
		cl.lpn = cl.rng.Intn(pages)
		cl.rs = b.ref.readStart(cl.lpn)
		cl.st.Read(cl.lpn, cl.read)
		return
	}
	// Writer w owns the pages congruent to w; skip pages it already
	// has a write in flight to.
	owned := (pages - cl.id + vcWriters - 1) / vcWriters
	for {
		cl.lpn = cl.id + vcWriters*cl.rng.Intn(owned)
		if !b.ref.inflight[cl.lpn] {
			break
		}
	}
	cl.ver = b.ref.beginWrite(cl.lpn)
	b.ref.fill(cl.buf, cl.lpn, cl.ver)
	cl.st.Write(cl.lpn, cl.buf, cl.done)
}

// seedVersions writes version 0 of every page of the volume.
func seedVersions(c *core.Cluster, v *volume.Volume, ref *vpages) error {
	st, err := v.NewStream("seed", sched.Batch)
	if err != nil {
		return err
	}
	var firstErr error
	next := 0
	pages := v.Pages()
	var issue func(buf []byte)
	issue = func(buf []byte) {
		if next >= pages {
			return
		}
		lpn := next
		next++
		ref.fill(buf, lpn, 0)
		st.Write(lpn, buf, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("seed page %d: %w", lpn, err)
			}
			issue(buf)
		})
	}
	for i := 0; i < 64; i++ {
		issue(make([]byte, v.PageSize()))
	}
	c.Run()
	return firstErr
}

// verifyAll reads back every page once the run has drained (no write
// in flight anywhere) and requires the last acknowledged version.
func verifyAll(c *core.Cluster, ref *vpages, read func(lpn int, cb func([]byte, error))) error {
	var bad error
	for lpn := range ref.issued {
		rs := ref.readStart(lpn)
		read(lpn, func(data []byte, err error) {
			if err != nil {
				if bad == nil {
					bad = fmt.Errorf("final read of page %d: %w", lpn, err)
				}
				return
			}
			if ver, ok := ref.verify(data, lpn, rs, true); !ok && bad == nil {
				bad = fmt.Errorf("final read of page %d returned version %d, last acknowledged %d", lpn, ver, ref.acked[lpn])
			}
		})
		if lpn%64 == 63 {
			c.Run()
		}
	}
	c.Run()
	if bad == nil && c.Eng.Pending() != 0 {
		bad = fmt.Errorf("engine did not drain after the final read-back")
	}
	return bad
}
