// Package ispvol is the distributed in-store processing subsystem:
// the layer that makes accelerators first-class, QoS-governed tenants
// of the sched/volume stack instead of raw flash peekers.
//
// The paper's headline capability (§4, §6) is in-store processors
// that read flash directly — no host software on the data path —
// while SHARING the flash controller with host traffic. Before this
// package, the accelerator stack attached to core.Node and issued
// reads outside the request scheduler, so an ISP-heavy tenant could
// starve realtime host streams: exactly the QoS violation the
// scheduler exists to prevent. Here, every engine flash read is
// admitted through sched's Accel class (window-accounted, capped by
// the accel token budget) and then issues on the device-side ISP
// path, keeping the zero-host-involvement data path.
//
// Every scan query is one pipeline, the one Figure 8 describes, and
// is named by three independent choices: a kernel × a Source × a
// Placement.
//
//   - The kernel is the query: string search (Search), table scan
//     (TableScan) or nearest-neighbor over LSH candidates
//     (NearestNeighbor). It says how one page folds into a partial
//     result, what a partial costs on the wire, how partials merge
//     (deterministically, in any order) and what folding a page costs
//     a host CPU.
//   - The Source is the pages: a range or a list of pages of the
//     volume, or a whole file or a list of pages of a cluster RFS
//     file. It is validated once, for both placements.
//   - The Placement is where the pages are reduced. Device runs the
//     Figure 8 pipeline: (1) the origin node's host resolves the
//     source to physical pages and partitions them by owning node;
//     (2) one engine per node claims a hardware acceleration unit (the
//     FIFO unit scheduler of internal/isp) and streams its partition
//     off the local flash, window-deep, through the node's
//     sched.AccelStream; (3) each engine folds its pages into one
//     partial next to the flash and ships only that to the origin over
//     the integrated storage network; (4) the origin merges the
//     partials and DMAs the answer into host memory. Host is the
//     host-mediated arm: the origin host reads every page at
//     Config.HostClass and folds it in software on worker threads,
//     one partial per thread.
//
// Both placements merge through the same kernel code, so their
// answers can only diverge on the data path — which is what the
// experiments' cross-validation of the two arms tests.
//
// Beside the scan queries sits in-store graph traversal with walker
// migration (WalkMigrate), where the walk's state — vertex, steps,
// checksum, RNG — hops node to node over the fabric so every
// dependent lookup reads flash locally.
//
// Bypass admission keeps the pre-fix bug as an explicit experiment
// arm: engine reads hit the raw device interfaces, invisible to the
// scheduler.
package ispvol

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// MergeEP is the fabric endpoint the subsystem binds on every node
// for query fan-out and result merge traffic (mapreduce shuffles on
// core.EPUser; this stays clear of it).
const MergeEP = core.EPUser + 1

// Admission selects the flash data path engines read through.
type Admission int

const (
	// Admitted is the production path: reads go through the node's
	// sched.AccelStream — Accel-class admission, window accounting,
	// token budget — then issue device-side.
	Admitted Admission = iota
	// Bypass is the pre-fix scheduler-bypass bug, kept as an explicit
	// experiment arm: reads hit the raw device interfaces directly,
	// invisible to the scheduler's device window, so ISP load inflates
	// realtime host tail latency without bound.
	Bypass
)

func (a Admission) String() string {
	switch a {
	case Admitted:
		return "admitted"
	case Bypass:
		return "bypass"
	default:
		return fmt.Sprintf("admission(%d)", int(a))
	}
}

// Config tunes the subsystem.
type Config struct {
	// UnitsPerNode is the number of hardware acceleration units each
	// node's FIFO unit scheduler arbitrates (paper §4): one engine
	// holds one unit for the duration of its partition. Default 4.
	UnitsPerNode int
	// Window is each engine's in-flight flash read depth. Default 8.
	Window int
	// RetryDelay is the backoff before re-admitting a read that hit
	// scheduler backpressure. Default 5 µs.
	RetryDelay sim.Time
	// Admission selects the engine data path (see Admission).
	Admission Admission
	// HostClass is the QoS class host-mediated queries read at.
	// Default Batch.
	HostClass sched.Class
	// HostThreads is the host worker-thread count that host-mediated
	// queries reduce pages on. Default 8.
	HostThreads int
}

// DefaultConfig returns the production configuration.
func DefaultConfig() Config {
	return Config{
		UnitsPerNode: 4,
		Window:       8,
		RetryDelay:   5 * sim.Microsecond,
		Admission:    Admitted,
		HostClass:    sched.Batch,
		HostThreads:  8,
	}
}

func (c Config) withDefaults() Config {
	if c.UnitsPerNode <= 0 {
		c.UnitsPerNode = 4
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 5 * sim.Microsecond
	}
	if c.HostThreads <= 0 {
		c.HostThreads = 8
	}
	return c
}

// System is the distributed ISP runtime over one cluster + volume.
type System struct {
	c   *core.Cluster
	s   *sched.Scheduler
	v   *volume.Volume
	cfg Config

	nodes     []*nodeISP
	pending   map[uint64]queryState
	nextQuery uint64
}

// nodeISP is one node's slice of the subsystem.
type nodeISP struct {
	node   *core.Node
	units  *isp.Scheduler
	stream *sched.AccelStream
	ep     *fabric.Endpoint
}

// queryState receives partial results at the origin.
type queryState interface {
	part(msg any)
}

var (
	// ErrNoVolume reports a volume Source on a System built without a
	// volume.
	ErrNoVolume = errors.New("ispvol: no volume attached; use a file source")
	// ErrOutOfRange reports an origin node or a Source page outside the
	// cluster, volume or file.
	ErrOutOfRange = errors.New("ispvol: out of range")
	// ErrPatternTooLong reports a search needle or nearest-neighbor
	// item longer than one page. Engines stitch matches only across
	// the junction of two adjacent pages, so a longer needle could
	// span three pages and be missed by both placements alike.
	ErrPatternTooLong = errors.New("ispvol: pattern longer than a page")
)

// New attaches the subsystem to a cluster, scheduler and volume (all
// three must belong together). It binds MergeEP on every node. v may
// be nil for deployments that run queries over files (an rfs cluster
// file system instead of the logical volume); volume sources then
// fail with ErrNoVolume.
func New(c *core.Cluster, s *sched.Scheduler, v *volume.Volume, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.HostClass >= sched.Accel {
		return nil, fmt.Errorf("ispvol: host-mediated class %v not usable by tenants", cfg.HostClass)
	}
	sys := &System{c: c, s: s, v: v, cfg: cfg, pending: make(map[uint64]queryState)}
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		units, err := isp.NewScheduler(fmt.Sprintf("isp-n%d", i), cfg.UnitsPerNode)
		if err != nil {
			return nil, err
		}
		st, err := s.NewAccelStream(fmt.Sprintf("isp-n%d", i), i)
		if err != nil {
			return nil, err
		}
		ep, err := n.NetNode().BindEndpoint(MergeEP)
		if err != nil {
			return nil, err
		}
		ns := &nodeISP{node: n, units: units, stream: st, ep: ep}
		ep.OnReceive = func(src fabric.NodeID, _ int, payload any) {
			sys.receive(ns, payload)
		}
		sys.nodes = append(sys.nodes, ns)
	}
	return sys, nil
}

// Cluster returns the underlying cluster.
func (sys *System) Cluster() *core.Cluster { return sys.c }

// Units exposes a node's acceleration-unit scheduler (for tests).
func (sys *System) Units(node int) *isp.Scheduler { return sys.nodes[node].units }

// Sync runs one asynchronous query — run starts it with the given
// completion — and drains the engine; for tests and examples that
// have nothing else in flight:
//
//	res, err := ispvol.Sync(sys, func(done func(*ispvol.SearchResult, error)) {
//		sys.Search(0, ispvol.VolumeRange(0, 64), ispvol.Device, needle, done)
//	})
func Sync[R any](sys *System, run func(done func(R, error))) (R, error) {
	var res R
	var rerr error
	fired := false
	run(func(r R, e error) { res, rerr, fired = r, e, true })
	sys.c.Run()
	if !fired {
		return res, errors.New("ispvol: query never completed")
	}
	return res, rerr
}

// receive dispatches an inbound fabric message on a node.
func (sys *System) receive(ns *nodeISP, payload any) {
	switch m := payload.(type) {
	case *startMsg:
		sys.runPart(ns, m)
	case *walkerMsg:
		sys.runWalkStep(ns, m)
	case *partMsg:
		if q, ok := sys.pending[m.query]; ok {
			q.part(m)
		}
	case *walkDoneMsg:
		if q, ok := sys.pending[m.query]; ok {
			q.part(m)
		}
	default:
		panic(fmt.Sprintf("ispvol: unknown message %T", payload))
	}
}

// deliver routes a message from node src to node dst: over the fabric
// when remote (size bytes on the wire), directly when local.
func (sys *System) deliver(src, dst int, size int, msg any) {
	if src == dst {
		sys.receive(sys.nodes[dst], msg)
		return
	}
	if err := sys.nodes[src].ep.Send(fabric.NodeID(dst), size, msg, nil); err != nil {
		panic(fmt.Sprintf("ispvol: merge route missing: %v", err))
	}
}

// startQuery registers origin-side query state and returns its id.
func (sys *System) startQuery(q queryState) uint64 {
	id := sys.nextQuery
	sys.nextQuery++
	sys.pending[id] = q
	return id
}

// finishQuery drops the registration.
func (sys *System) finishQuery(id uint64) { delete(sys.pending, id) }

// readPage issues one engine flash read on node n's data path.
func (sys *System) readPage(n int, a core.PageAddr, cb func(data []byte, err error)) {
	if sys.cfg.Admission == Bypass {
		// The bug path: straight to the device interfaces, reproducing
		// the pre-fix behavior.
		sys.nodes[n].node.ISPRead(a, cb)
		return
	}
	st := sys.nodes[n].stream
	var try func()
	try = func() {
		if err := st.Read(a, cb); err == sched.ErrBackpressure {
			sys.c.Eng.After(sys.cfg.RetryDelay, try)
		} else if err != nil {
			cb(nil, err)
		}
	}
	try()
}

// dmaToHost models the final result DMA into the origin host's
// memory: size bytes through a read buffer plus the completion
// interrupt, then cb. Zero-size results skip the transfer.
func (sys *System) dmaToHost(origin, size int, cb func()) {
	if size <= 0 {
		cb()
		return
	}
	h := sys.nodes[origin].node.Host
	h.AcquireReadBuffer(size, func(buf int) {
		h.ReleaseReadBuffer(buf)
		cb()
	}, func(buf int) {
		h.DeviceWriteChunk(buf, size, true)
	})
}
