package ispvol

// The query engine every scan query runs on: validate the Source
// once, then either fan one engine out per owning node (Device) or
// read every page into the origin host (Host), fold pages into
// partials with the query's kernel, and merge the partials at the
// origin through the same kernel code.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/rfs"
	"repro/internal/sim"
)

// Placement selects where a query's pages are reduced.
type Placement int

const (
	// Device reduces pages beside the flash: one engine per owning
	// node reads its partition through the node's sched.Accel stream
	// (raw device reads under Bypass admission) and folds it into one
	// partial, which alone crosses the fabric to the origin. The merged
	// answer is DMA'd into the origin host's memory.
	Device Placement = iota
	// Host is the host-mediated arm: the origin host reads every page
	// at Config.HostClass (scheduler admission, batched doorbells, PCIe
	// DMA, read buffers) and folds it in software on Config.HostThreads
	// worker threads, one partial per thread.
	Host
)

// Source names the pages a query reads, in query order: a range or a
// list of pages of the System's volume, or a whole file or a list of
// pages of a cluster RFS file. Search match offsets are byte offsets
// into the concatenation of the source's pages. A file must stay
// read-stable for the query: Device placement snapshots its physical
// addresses at launch (see rfs.File.PhysicalAddrs).
type Source struct {
	file   *rfs.File // nil: the System's volume
	lo, hi int       // the page range, when pages is nil
	pages  []int
}

// VolumeRange is logical pages [lo, hi) of the volume.
func VolumeRange(lo, hi int) Source { return Source{lo: lo, hi: hi} }

// VolumePages is the listed logical pages of the volume.
func VolumePages(lpns []int) Source { return Source{pages: lpns} }

// File is every page the file holds at the call.
func File(f *rfs.File) Source { return Source{file: f, hi: f.Pages()} }

// FilePages is the listed pages of the file.
func FilePages(f *rfs.File, pages []int) Source { return Source{file: f, pages: pages} }

// page returns the store page that query page i reads.
func (s Source) page(i int) int {
	if s.pages != nil {
		return s.pages[i]
	}
	return s.lo + i
}

// check validates the source against sys and returns its page count
// and page size.
func (s Source) check(sys *System) (pages, ps int, err error) {
	store, limit := "file", 0
	switch {
	case s.file != nil:
		limit, ps = s.file.Pages(), s.file.PageSize()
	case sys.v == nil:
		return 0, 0, ErrNoVolume
	default:
		store, limit, ps = "volume", sys.v.Pages(), sys.v.PageSize()
	}
	if s.pages == nil {
		if s.lo < 0 || s.hi > limit || s.lo > s.hi {
			return 0, 0, fmt.Errorf("%w: range [%d,%d) of a %d-page %s", ErrOutOfRange, s.lo, s.hi, limit, store)
		}
		return s.hi - s.lo, ps, nil
	}
	for _, p := range s.pages {
		if p < 0 || p >= limit {
			return 0, 0, fmt.Errorf("%w: page %d of a %d-page %s", ErrOutOfRange, p, limit, store)
		}
	}
	return len(s.pages), ps, nil
}

// resolve returns the physical address of every query page (Figure 8
// step 1: the host's physical-address query).
func (s Source) resolve(sys *System, pages int) ([]core.PageAddr, error) {
	if s.file == nil {
		addrs := make([]core.PageAddr, pages)
		for i := range addrs {
			a, err := sys.v.Phys(s.page(i))
			if err != nil {
				return nil, err
			}
			addrs[i] = a
		}
		return addrs, nil
	}
	all, err := s.file.PhysicalAddrs()
	if err != nil {
		return nil, err
	}
	if s.pages == nil {
		return all[s.lo:s.hi], nil
	}
	addrs := make([]core.PageAddr, pages)
	for i, p := range s.pages {
		addrs[i] = all[p]
	}
	return addrs, nil
}

// reader returns the host-path page reader: query page i, read at
// Config.HostClass into origin's host memory.
func (s Source) reader(sys *System, origin int) (func(i int, cb func([]byte, error)), error) {
	if s.file != nil {
		h := s.file.At(sys.cfg.HostClass)
		return func(i int, cb func([]byte, error)) { h.ReadPage(s.page(i), cb) }, nil
	}
	st, err := sys.v.NewStream(fmt.Sprintf("ispvol-host-n%d", origin), sys.cfg.HostClass)
	if err != nil {
		return nil, err
	}
	return func(i int, cb func([]byte, error)) { st.Read(s.page(i), cb) }, nil
}

// kernel is one query type: the per-page fold (through its partials),
// the fan-out and host costs, and the origin-side merge and answer.
// A kernel value serves exactly one query; the origin's merged state
// lives in it.
type kernel[R result] interface {
	// prepare validates the query arguments against the source's page
	// count and page size, and compiles them. It runs before anything
	// else, for both placements.
	prepare(pages, ps int) error
	// newPartial returns an empty partial for one engine or one host
	// worker thread.
	newPartial() partial
	// startBytes is the fan-out message size for a partition of refs
	// pages: arguments plus the address list.
	startBytes(refs int) int
	// pageCost is the host CPU time to fold one page of ps bytes in
	// software.
	pageCost(ps int) sim.Time
	// merge folds a finished partial into the answer. Any merge order
	// gives the same answer.
	merge(p partial)
	// result assembles the answer and returns it with the size of the
	// result DMA into the origin host (Device placement).
	result(t tally) (R, int)
}

// partial is one engine's (or host worker's) reduction of its pages.
type partial interface {
	// fold reduces query page qidx; false marks an undecodable page.
	fold(qidx int, data []byte) bool
	// wireBytes is the partial's size on the fabric to the origin.
	wireBytes() int
}

// result is a query answer; stamp fills its timing fields once it has
// reached host memory.
type result interface {
	stamp(elapsed sim.Time)
}

// tally is what the engine counts for every query, whatever its
// kernel.
type tally struct {
	placement Placement
	pages, ps int
	failed    int   // pages whose read or decode failed
	hostBytes int64 // page bytes hauled into host memory (Host placement)
}

// query is the origin-side state of one scan query.
type query[R result] struct {
	sys    *System
	k      kernel[R]
	done   func(R, error)
	id     uint64
	origin int
	t      tally
	parts  int // Device partials still to merge
	start  sim.Time
}

// startMsg fans a partition out to one node's engine: the kernel (its
// arguments) plus the physical address list (Figure 8 step 2).
type startMsg struct {
	query  uint64
	origin int
	k      interface{ newPartial() partial }
	refs   []pageRef
}

// partMsg returns a partition's reduction to the origin.
type partMsg struct {
	query  uint64
	failed int
	p      partial
}

// pageRef is one page of a query partition.
type pageRef struct {
	qidx int // page index within the query
	addr core.PageAddr
}

// launch validates a query once for both placements and starts it on
// the chosen one. done fires in virtual time once the answer is in
// the origin host's memory.
//
//simlint:once done
func launch[R result](sys *System, origin int, src Source, pl Placement, k kernel[R], done func(R, error)) {
	var none R
	if origin < 0 || origin >= sys.c.Nodes() {
		done(none, fmt.Errorf("%w: origin node %d", ErrOutOfRange, origin))
		return
	}
	pages, ps, err := src.check(sys)
	if err == nil {
		err = k.prepare(pages, ps)
	}
	if err != nil {
		done(none, err)
		return
	}
	q := &query[R]{sys: sys, k: k, done: done, origin: origin,
		t: tally{placement: pl, pages: pages, ps: ps}, start: sys.c.Eng.Now()}
	if pl == Host {
		read, err := src.reader(sys, origin)
		if err != nil {
			done(none, err)
			return
		}
		q.runHost(read)
		return
	}
	addrs, err := src.resolve(sys, pages)
	if err != nil {
		done(none, err)
		return
	}
	q.fanOut(sys.partition(addrs))
}

// partition groups a resolved physical address list by owning node:
// the origin-side step that turns one query into per-node engine
// partitions.
func (sys *System) partition(addrs []core.PageAddr) [][]pageRef {
	parts := make([][]pageRef, sys.c.Nodes())
	for i, a := range addrs {
		parts[a.Node] = append(parts[a.Node], pageRef{qidx: i, addr: a})
	}
	return parts
}

// fanOut registers the origin-side merge state and ships each
// partition to its node's engine.
func (q *query[R]) fanOut(parts [][]pageRef) {
	sys := q.sys
	q.id = sys.startQuery(q)
	for _, refs := range parts {
		if len(refs) > 0 {
			q.parts++
		}
	}
	if q.parts == 0 {
		q.finish()
		return
	}
	// One software + RPC charge covers the whole fan-out: the host
	// ships the kernel's arguments and each partition's address list
	// to its node's engine, then gets out of the way until the merge.
	node := sys.nodes[q.origin].node
	node.Host.ChargeSoftware(func() {
		node.Host.RPC(func() {
			for n, refs := range parts {
				if len(refs) == 0 {
					continue
				}
				msg := &startMsg{query: q.id, origin: q.origin, k: q.k, refs: refs}
				sys.deliver(q.origin, n, q.k.startBytes(len(refs)), msg)
			}
		})
	})
}

// runPart executes one node's engine: fold every local page of the
// partition into one partial and ship it to the origin.
func (sys *System) runPart(ns *nodeISP, m *startMsg) {
	n := ns.node.ID()
	res := &partMsg{query: m.query, p: m.k.newPartial()}
	sys.runEngine(n, m.refs, func(qidx int, data []byte, err error) {
		if err != nil || !res.p.fold(qidx, data) {
			res.failed++
		}
	}, func() {
		sys.deliver(n, m.origin, res.p.wireBytes(), res)
	})
}

// part merges one node's partial into the answer.
func (q *query[R]) part(msg any) {
	m := msg.(*partMsg)
	q.t.failed += m.failed
	q.k.merge(m.p)
	q.parts--
	if q.parts == 0 {
		q.finish()
	}
}

// finish assembles the answer and delivers it: Device answers DMA
// into the origin host's memory first; Host answers are already
// there.
func (q *query[R]) finish() {
	res, dma := q.k.result(q.t)
	complete := func() {
		res.stamp(q.sys.c.Eng.Now() - q.start)
		q.done(res, nil)
	}
	if q.t.placement == Host {
		complete()
		return
	}
	q.sys.finishQuery(q.id)
	q.sys.dmaToHost(q.origin, dma, complete)
}

// runEngine claims one acceleration unit on node n, streams refs
// window-deep through the node's flash data path, feeds every page to
// fold (in completion order), then releases the unit and fires done.
// fold's err is the page's read error (the page is skipped, not
// fatal).
func (sys *System) runEngine(n int, refs []pageRef, fold func(qidx int, data []byte, err error), done func()) {
	refs = chipInterleave(refs)
	sys.nodes[n].units.Submit(func(unitDone func()) {
		closedLoop(len(refs), sys.cfg.Window, func(i int, slotDone func()) {
			sys.readPage(n, refs[i].addr, func(data []byte, err error) {
				fold(refs[i].qidx, data, err)
				slotDone()
			})
		}, func() {
			unitDone()
			done()
		})
	})
}

// closedLoop runs slots 0..n-1 at most depth at a time: start begins
// slot i, which ends when it calls slotDone (synchronously or from a
// later event). finish fires once every slot has ended.
func closedLoop(n, depth int, start func(i int, slotDone func()), finish func()) {
	if n == 0 {
		finish()
		return
	}
	next, inflight := 0, 0
	var pump func()
	slotDone := func() {
		inflight--
		if inflight == 0 && next >= n {
			finish()
			return
		}
		pump()
	}
	pump = func() {
		for inflight < depth && next < n {
			i := next
			next++
			inflight++
			start(i, slotDone)
		}
	}
	pump()
}

// chipInterleave reorders a partition so consecutive reads target
// different flash chips. The FTL's frontier allocation packs adjacent
// logical pages into one physical block — a single chip — so scanning
// a partition in logical order would convoy the engine's whole read
// window on one chip at a time while fifteen others idle. Engines
// scan pages independently (order never affects the result), so they
// are free to schedule by chip availability, the way the hardware
// issues reads to whichever bus is free. Buckets by (card, bus,
// chip), round-robin across buckets; fully deterministic.
func chipInterleave(refs []pageRef) []pageRef {
	if len(refs) < 2 {
		return refs
	}
	type chipKey struct{ card, bus, chip int }
	var order []chipKey
	buckets := make(map[chipKey][]pageRef)
	for _, r := range refs {
		k := chipKey{r.addr.Card, r.addr.Addr.Bus, r.addr.Addr.Chip}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], r)
	}
	out := make([]pageRef, 0, len(refs))
	for len(out) < len(refs) {
		for _, k := range order {
			if b := buckets[k]; len(b) > 0 {
				out = append(out, b[0])
				buckets[k] = b[1:]
			}
		}
	}
	return out
}

// hostWorker is one host worker thread of a Host-placed query.
type hostWorker struct {
	th *hostmodel.Thread
	p  partial
}

// runHost is the host-mediated arm: a closed loop reads every page
// through the host path and folds it on a worker thread. The loop gets
// the same I/O concurrency budget the engines have (units x window);
// each slot is read-then-fold, so slots overlap flash, PCIe and CPU
// work across each other.
func (q *query[R]) runHost(read func(i int, cb func([]byte, error))) {
	sys := q.sys
	cpu := sys.c.Node(q.origin).CPU
	workers := make([]hostWorker, sys.cfg.HostThreads)
	for i := range workers {
		workers[i] = hostWorker{th: cpu.NewThread(), p: q.k.newPartial()}
	}
	cost := q.k.pageCost(q.t.ps)
	closedLoop(q.t.pages, sys.cfg.UnitsPerNode*sys.cfg.Window, func(i int, slotDone func()) {
		read(i, func(data []byte, err error) {
			if err != nil {
				q.t.failed++
				slotDone()
				return
			}
			q.t.hostBytes += int64(len(data))
			w := &workers[i%len(workers)]
			w.th.Do(cost, func() {
				if !w.p.fold(i, data) {
					q.t.failed++
				}
				slotDone()
			})
		})
	}, func() {
		for _, w := range workers {
			q.k.merge(w.p)
		}
		q.finish()
	})
}
