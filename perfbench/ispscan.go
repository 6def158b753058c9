package main

// isp-scan: cluster RFS over 4 nodes holding a file of pages with
// planted needles. One query client runs ispvol.SearchFile (engines
// next to the flash, reads admitted through sched.Accel) back to back,
// another ispvol.SearchFileHost (host-mediated), and every query must
// find exactly the planted needles. Realtime readers read the
// same file through rfs.File.ReadPage and verify the bytes, and a
// batch writer overwrites a second file so segment cleaning runs.
//
// The scan file is written first and fills whole stripe rounds, so
// its segments stay fully valid and the cleaner never moves them
// under a running query.

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
)

var ispScan = scenario{
	name:         "isp-scan",
	round:        20 * sim.Millisecond,
	roundsPerSec: 4,
	minRounds:    15,
	warm:         40 * sim.Millisecond,
	build:        buildISPScan,
}

const (
	isNodes        = 4
	isScanRounds   = 1 // stripe rounds in the scan file
	isChurnPages   = 4096
	isQueryClients = 2
	isReaders      = 4
	isWriterDepth  = 8
	// isPreChurn random overwrites of the churn file during set-up bring
	// the free-segment pool down to where cleaning runs.
	isPreChurn = 2000
)

var isNeedle = []byte("BlueDBM-needle")

type isBench struct {
	e       *env
	sys     *ispvol.System
	scanF   *rfs.File
	expect  []uint64 // scan page hashes
	planted int
	ps      int

	churnBusy []bool
}

// isHaystack fills page idx of the scan file: seeded random bytes, a
// needle in the middle of every fifth page, and a needle split across
// the junction of pages 7k+3 and 7k+4.
func isHaystack(seed uint64, idx int, page []byte) {
	sim.NewRNG(seed*0x9e3779b97f4a7c15 ^ uint64(idx)).Bytes(page)
	ps, split := len(page), len(isNeedle)/2
	if idx%5 == 2 {
		copy(page[ps/2:], isNeedle)
	}
	if idx%7 == 3 {
		copy(page[ps-split:], isNeedle[:split])
	}
	if idx%7 == 4 {
		copy(page, isNeedle[split:])
	}
}

func buildISPScan(seed uint64) (*env, error) {
	p := core.DefaultParams(isNodes)
	p.Geometry.ChipsPerBus = 1
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
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
	rcfg := rfs.DefaultConfig()
	rcfg.CleanLowWater = 8 // the file-stack experiment's setting for the same 64 chips
	rcfg.StripeExtent = 4
	fs, _, err := rfs.NewClusterFS(c, s, rfs.ClusterConfig{}, rcfg)
	if err != nil {
		return nil, err
	}
	lay := fs.Backend().Layout()
	scanPages := isScanRounds * lay.Chips * lay.PagesPerSeg
	ps := fs.PageSize()
	b := &isBench{ps: ps, expect: make([]uint64, scanPages), churnBusy: make([]bool, isChurnPages)}

	if b.scanF, err = fs.Create("scan"); err != nil {
		return nil, err
	}
	var prev []byte
	if err := appendPages(c, b.scanF, scanPages, ps, func(idx int, page []byte) {
		isHaystack(seed, idx, page)
		b.expect[idx] = pageHash(page)
		b.planted += bytes.Count(page, isNeedle)
		if prev != nil {
			junction := append(append([]byte(nil), prev[ps-len(isNeedle)+1:]...), page[:len(isNeedle)-1]...)
			b.planted += bytes.Count(junction, isNeedle)
		}
		prev = page
	}); err != nil {
		return nil, err
	}
	churnF, err := fs.Create("churn")
	if err != nil {
		return nil, err
	}
	if err := appendPages(c, churnF, isChurnPages, ps, func(idx int, page []byte) {
		sim.NewRNG(seed ^ 0xc4025e ^ uint64(idx)<<20).Bytes(page)
	}); err != nil {
		return nil, err
	}
	if err := preChurn(c, churnF, seed); err != nil {
		return nil, err
	}
	if b.sys, err = ispvol.New(c, s, nil, ispvol.DefaultConfig()); err != nil {
		return nil, err
	}

	r := newRec(c.Eng, isReaders)
	b.e = &env{c: c, s: s, fs: fs, rec: r}
	id := 0
	for q := 0; q < isQueryClients; q++ {
		b.startQueries(id, q%isNodes, q%2 == 0)
		id++
	}
	rtFile := b.scanF.At(sched.Realtime)
	for i := 0; i < isReaders; i++ {
		b.startReader(id, i, rtFile, sim.NewRNG(seed^uint64(i+1)*0x94d049bb133111eb))
		id++
	}
	wFile := churnF.At(sched.Batch)
	wrng := sim.NewRNG(seed ^ 0x77726974)
	for d := 0; d < isWriterDepth; d++ {
		b.startWriter(id, wFile, wrng)
		id++
	}
	b.e.check = func() error {
		if err := fs.CheckInvariants(); err != nil {
			return fmt.Errorf("rfs invariants: %w", err)
		}
		return nil
	}
	return b.e, nil
}

// startQueries runs one query client: back-to-back scans of the whole
// scan file, on the device (dev) or host-mediated. One client of each
// kind keeps one query of each placement in flight at all times.
func (b *isBench) startQueries(id, origin int, dev bool) {
	r := b.e.rec
	sp := spanHostQuery
	if dev {
		sp = spanDevQuery
	}
	var t0 sim.Time
	var issue func()
	done := func(res *ispvol.SearchResult, err error) {
		var scanned int64
		var digest uint64
		if err == nil {
			switch {
			case res.FailedPages > 0:
				err = fmt.Errorf("%d query pages failed to read", res.FailedPages)
			case len(res.Matches) != b.planted:
				r.fail("query from node %d found %d needles, %d planted", origin, len(res.Matches), b.planted)
			default:
				r.checked()
			}
			scanned = res.Bytes
			for _, m := range res.Matches {
				digest = digest*31 + uint64(m)
			}
			if r.traceOn {
				r.spanBytes[sp] += res.Bytes
				r.spanElapse[sp] += res.Elapsed
			}
		}
		r.done(id, -1, sp, t0, scanned, digest, err)
		issue()
	}
	issue = func() {
		if r.stopped {
			return
		}
		r.begin()
		t0 = b.e.c.Eng.Now()
		if dev {
			b.sys.SearchFile(origin, b.scanF, isNeedle, done)
		} else {
			b.sys.SearchFileHost(origin, b.scanF, isNeedle, done)
		}
	}
	issue()
}

func (b *isBench) startReader(id, rtIdx int, f *rfs.File, rng *sim.RNG) {
	r := b.e.rec
	var t0 sim.Time
	var idx int
	var issue func()
	read := func(data []byte, err error) {
		var h uint64
		if err == nil {
			if h = pageHash(data); h != b.expect[idx] {
				r.fail("read of scan page %d returned bytes that were never written there", idx)
			} else {
				r.checked()
			}
		}
		r.done(id, rtIdx, spanRFSRead, t0, int64(b.ps), h, err)
		issue()
	}
	issue = func() {
		if r.stopped {
			return
		}
		r.begin()
		t0, idx = b.e.c.Eng.Now(), rng.Intn(len(b.expect))
		f.ReadPage(idx, read)
	}
	issue()
}

func (b *isBench) startWriter(id int, f *rfs.File, rng *sim.RNG) {
	r := b.e.rec
	buf := make([]byte, b.ps)
	rng.Bytes(buf)
	var t0 sim.Time
	var idx int
	var issue func()
	wrote := func(err error) {
		b.churnBusy[idx] = false
		r.done(id, -1, spanNone, t0, int64(b.ps), uint64(idx), err)
		issue()
	}
	issue = func() {
		if r.stopped {
			return
		}
		r.begin()
		for {
			if idx = rng.Intn(isChurnPages); !b.churnBusy[idx] {
				break
			}
		}
		b.churnBusy[idx] = true
		buf[0]++
		t0 = b.e.c.Eng.Now()
		f.WritePage(idx, buf, wrote)
	}
	issue()
}

// preChurn overwrites random churn-file pages, isWriterDepth at a time.
func preChurn(c *core.Cluster, f *rfs.File, seed uint64) error {
	rng := sim.NewRNG(seed ^ 0x70726563)
	page := make([]byte, f.PageSize())
	rng.Bytes(page)
	var firstErr error
	for done := 0; done < isPreChurn; done += isWriterDepth {
		for i := 0; i < isWriterDepth; i++ {
			f.WritePage(rng.Intn(isChurnPages), page, func(err error) {
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("pre-churn write: %w", err)
				}
			})
		}
		c.Run()
	}
	return firstErr
}

// appendPages seeds a file with n generated pages, 64 appends at a time.
func appendPages(c *core.Cluster, f *rfs.File, n, ps int, gen func(idx int, page []byte)) error {
	var firstErr error
	for lo := 0; lo < n; lo += 64 {
		for idx := lo; idx < min(lo+64, n); idx++ {
			page := make([]byte, ps)
			gen(idx, page)
			f.AppendPage(page, func(err error) {
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("seed %s page %d: %w", f.Name(), idx, err)
				}
			})
		}
		c.Run()
	}
	return firstErr
}
