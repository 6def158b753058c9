package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/flashctl"
	"repro/internal/flashserver"
	"repro/internal/hostif"
	"repro/internal/hostmodel"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Endpoint indices of the built-in cluster services. Remote flash
// traffic is striped over FlashLanes request/response endpoint pairs:
// deterministic routing pins each endpoint to one path (§3.2.3), so
// multiple endpoints are what lets parallel cables between two nodes
// carry parallel flash traffic (the ISP-3Nodes setup of Figure 13).
// User in-store processors bind their own endpoints at EPUser and up.
const (
	FlashLanes  = 4
	EPFlashReq  = 0          // lanes 0..FlashLanes-1: requests
	EPFlashResp = FlashLanes // lanes FlashLanes..2*FlashLanes-1: responses
	EPUser      = 8          // first endpoint index free for applications
)

// ISPReadLanes is the number of parallel read channels each card
// offers its in-store processors. A flashserver interface delivers
// responses in FIFO request order, so one shared channel would
// head-of-line-block every ISP read behind whichever chip happens to
// be busiest; striping reads over independent channels models the
// tag-based flash controller completing reads out of order — the
// paper's "4 read commands can saturate a single flash bus" sizing
// (§7.3). Writes and erases keep the single in-order channel: NAND
// programs blocks strictly in page order.
const ISPReadLanes = 4

// AccessPath selects how a remote page is fetched (paper §6.4).
type AccessPath int

// The four access paths of Figure 12.
const (
	PathISPF AccessPath = iota // in-store processor -> remote flash
	PathHF                     // host -> remote flash (integrated network)
	PathHRHF                   // host -> remote flash via remote host
	PathHD                     // host -> remote DRAM
)

func (p AccessPath) String() string {
	switch p {
	case PathISPF:
		return "ISP-F"
	case PathHF:
		return "H-F"
	case PathHRHF:
		return "H-RH-F"
	case PathHD:
		return "H-D"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Trace decomposes one access's latency the way Figure 14 does.
type Trace struct {
	Software sim.Time // host software + RPC + interrupt charges
	Storage  sim.Time // flash array access (first byte out of storage)
	Transfer sim.Time // data movement: buses, serial links, PCIe
	Network  sim.Time // per-hop switch/wire latency
	Total    sim.Time
}

// reqMsg travels on a flash request lane.
type reqMsg struct {
	card    int
	addr    nand.Addr
	reqID   uint64
	lane    int
	from    fabric.NodeID
	viaHost bool // remote host processes the request (H-RH-F)
	dram    bool // serve from the on-device DRAM buffer (H-D)
	write   bool
	erase   bool
	bg      bool   // background (GC) traffic: keep off the latency FIFOs
	data    []byte // payload for writes
}

// respMsg travels on EPFlashResp.
type respMsg struct {
	reqID uint64
	data  []byte
	err   error
}

// Node is one BlueDBM node: Xeon host + storage device (Figure 2).
type Node struct {
	cluster *Cluster
	id      int

	cards     []*nand.Card
	ctls      []*flashctl.Controller
	splitters []*flashserver.Splitter
	servers   []*flashserver.Server

	// ispIfaces and hostIfaces are per-card in-order flash interfaces
	// dedicated to in-store processors and to the host DMA path.
	// bgIfaces carry host-side background traffic (FTL garbage
	// collection): an interface delivers responses in FIFO request
	// order, so a 3 ms block erase sharing the latency path's
	// interface would head-of-line-block every read behind it.
	// ispReadIfaces stripe ISP reads over ISPReadLanes channels per
	// card (ispIfaces keep the single in-order channel for ISP writes
	// and erases).
	ispIfaces     []*flashserver.Iface
	ispReadIfaces [][]*flashserver.Iface
	ispReadRR     []int
	hostIfaces    []*flashserver.Iface
	bgIfaces      []*flashserver.Iface

	Host *hostif.HostIf
	CPU  *hostmodel.CPU
	dram *sim.Pipe

	// ioThread is the host's serial I/O submission thread: every
	// batched doorbell (SubmitHostBatch) is charged here, so doorbell
	// software cost consumes CPU instead of being pure latency.
	ioThread *hostmodel.Thread

	netNode *fabric.Node
	reqEPs  []*fabric.Endpoint
	respEPs []*fabric.Endpoint

	nextReq uint64
	pending map[uint64]func(data []byte, err error)

	// batchFree recycles doorbell batch slices: SubmitHostBatch takes
	// ownership of its reqs argument and parks the storage here once
	// the RPC loop has consumed it; GetBatch hands it back out.
	batchFree [][]HostReq
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.cluster }

// Card returns flash card c.
func (n *Node) Card(c int) *nand.Card { return n.cards[c] }

// Controller returns the flash controller of card c.
func (n *Node) Controller(c int) *flashctl.Controller { return n.ctls[c] }

// Server returns the flash server of card c.
func (n *Node) Server(c int) *flashserver.Server { return n.servers[c] }

// NewIface creates a fresh in-order flash interface on card c, for
// in-store processors that want private FIFO channels.
func (n *Node) NewIface(c int, name string) *flashserver.Iface {
	return n.servers[c].NewIface(name)
}

// NetNode exposes the node's fabric personality so applications can
// bind their own endpoints (>= EPUser).
func (n *Node) NetNode() *fabric.Node { return n.netNode }

// Eng returns the cluster's event engine.
func (n *Node) Eng() *sim.Engine { return n.cluster.Eng }

// --- local flash access (device side / ISP path) ---------------------

// ReadLocal reads a page on this node's own flash through the in-store
// processor interface: no host, no network. Reads stripe round-robin
// over the card's ISPReadLanes channels so concurrent ISP reads
// complete out of order instead of convoying behind one busy chip;
// callers needing a private FIFO channel use NewIface.
func (n *Node) ReadLocal(card int, addr nand.Addr, cb func(data []byte, err error)) {
	lanes := n.ispReadIfaces[card]
	lane := n.ispReadRR[card] % len(lanes)
	n.ispReadRR[card]++
	//simlint:allow escapecheck (inlined flashserver read: the per-op completion record is audited at its declaration, hidden under NAND latency)
	lanes[lane].ReadPhysical(addr, cb)
}

// WriteLocal programs a page on this node's own flash (ISP interface).
func (n *Node) WriteLocal(card int, addr nand.Addr, data []byte, cb func(err error)) {
	n.ispIfaces[card].WritePhysical(addr, data, cb)
}

// EraseLocal erases a block on this node's own flash.
func (n *Node) EraseLocal(card int, addr nand.Addr, cb func(err error)) {
	n.ispIfaces[card].Erase(addr, cb)
}

// --- global address space (ISP-F path) ------------------------------

// ISPRead reads any page in the cluster from this node's in-store
// processor. Local pages use the local flash interface; remote pages
// go over the integrated storage network to the remote flash server —
// the ISP-F path, with zero host involvement anywhere. It is the raw
// device path, invisible to the request scheduler: scheduled ISP
// traffic is admitted through sched.AccelStream, which issues here
// once granted.
func (n *Node) ISPRead(a PageAddr, cb func(data []byte, err error)) {
	if a.Node == n.id {
		n.ReadLocal(a.Card, a.Addr, cb)
		return
	}
	n.remoteReq(reqMsg{card: a.Card, addr: a.Addr}, a.Node, cb)
}

// ISPWrite writes any page in the cluster from this node's ISP.
func (n *Node) ISPWrite(a PageAddr, data []byte, cb func(err error)) {
	if a.Node == n.id {
		n.WriteLocal(a.Card, a.Addr, data, cb)
		return
	}
	n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, write: true, data: data}, a.Node,
		func(_ []byte, err error) { cb(err) })
}

// remoteReq sends a request message on the next lane (round-robin) and
// registers the completion.
//
//simlint:allow escapecheck (the request descriptor is captured by the lane send; one bounded message per remote op, hidden under fabric latency)
func (n *Node) remoteReq(msg reqMsg, dst int, cb func(data []byte, err error)) {
	msg.reqID = n.nextReq
	msg.lane = int(n.nextReq % FlashLanes)
	msg.from = n.netNode.ID()
	n.nextReq++
	n.pending[msg.reqID] = cb
	size := 32 // request descriptor
	if msg.write {
		size += len(msg.data)
	}
	if err := n.reqEPs[msg.lane].Send(fabric.NodeID(dst), size, &msg, nil); err != nil {
		delete(n.pending, msg.reqID)
		cb(nil, err)
	}
}

// handleFlashReq is the device-side service for remote requests.
func (n *Node) handleFlashReq(src fabric.NodeID, _ int, payload any) {
	msg := payload.(*reqMsg)
	serve := func() {
		switch {
		case msg.dram:
			// The page is cached in the on-device DRAM buffer: no flash
			// latency, just the buffer access. The cache holds the same
			// logical content as the flash page.
			n.dram.Transfer(n.cluster.Params.PageSize(), func() {
				data := make([]byte, n.cluster.Params.PageSize())
				copy(data, n.cards[msg.card].Peek(msg.addr))
				n.respond(msg, data, nil)
			})
		case msg.write:
			n.serveIface(msg).WritePhysical(msg.addr, msg.data, func(err error) {
				n.respond(msg, nil, err)
			})
		case msg.erase:
			n.serveIface(msg).Erase(msg.addr, func(err error) {
				n.respond(msg, nil, err)
			})
		default:
			iface := n.serveIface(msg)
			if !msg.bg {
				// Remote latency-path reads stripe over the card's ISP
				// read lanes like local ISP reads do.
				lanes := n.ispReadIfaces[msg.card]
				iface = lanes[n.ispReadRR[msg.card]%len(lanes)]
				n.ispReadRR[msg.card]++
			}
			iface.ReadPhysical(msg.addr, func(data []byte, err error) {
				n.respond(msg, data, err)
			})
		}
	}
	if msg.viaHost {
		// The request surfaces to the remote host's software before
		// being served. Flash requests (H-RH-F) pay the full storage
		// stack; DRAM-cached requests (H-D) take the lightweight
		// user-level serving path.
		h := n.Host.Config()
		n.cluster.Eng.After(h.InterruptLatency, func() {
			if msg.dram {
				n.Host.ChargeLightSoftware(func() { n.Host.RPC(serve) })
			} else {
				n.Host.ChargeSoftware(func() { n.Host.RPC(serve) })
			}
		})
		return
	}
	serve()
}

// serveIface picks the device-side interface for a remote request:
// background (GC) traffic stays off the in-store processors' FIFO.
func (n *Node) serveIface(msg *reqMsg) *flashserver.Iface {
	if msg.bg {
		return n.bgIfaces[msg.card]
	}
	return n.ispIfaces[msg.card]
}

// respond ships the result back over the integrated network on the
// response lane paired with the request's lane.
func (n *Node) respond(msg *reqMsg, data []byte, err error) {
	size := 32 + len(data)
	resp := &respMsg{reqID: msg.reqID, data: data, err: err}
	if serr := n.respEPs[msg.lane].Send(msg.from, size, resp, nil); serr != nil {
		panic(fmt.Sprintf("core: response route missing: %v", serr))
	}
}

// handleFlashResp completes a pending remote request.
func (n *Node) handleFlashResp(_ fabric.NodeID, _ int, payload any) {
	resp := payload.(*respMsg)
	cb, ok := n.pending[resp.reqID]
	if !ok {
		return
	}
	delete(n.pending, resp.reqID)
	cb(resp.data, resp.err)
}

// --- host-mediated access paths (Figure 12) --------------------------

// HostReq is one host-side flash request in the batched submission
// path: the unit the request scheduler (internal/sched) admits, queues
// and coalesces. For writes Data carries the payload and Done's data
// argument is nil. Erase requests (issued by the host-resident FTL's
// garbage collector) erase the whole block containing Addr; for them
// too Done's data argument is nil. Done fires exactly once.
type HostReq struct {
	Addr  PageAddr
	Write bool
	Erase bool
	// Background routes the request over the card's background flash
	// interface instead of the latency path's. Interfaces deliver
	// responses in FIFO request order, so slow housekeeping ops (GC
	// relocation, 3 ms erases) sharing the foreground interface would
	// head-of-line-block every read behind them; a separate interface
	// confines the wait to real chip-level contention.
	Background bool
	Data       []byte
	Done       func(data []byte, err error)
}

// SubmitHostBatch issues a group of host requests paying the storage
// stack software overhead and the RPC doorbell ONCE for the whole
// batch: the driver rings the device with a queue of requests, which
// is what lets a host keep thousands of flash requests in flight
// (paper §3.3) instead of serialising on the 70 µs software path.
// Per-request buffer flow control, DMA and completion interrupts are
// still charged individually.
//
// Unlike the single-request HostRead/HostWrite paths (the unloaded
// measurement harness of Fig. 12, where software cost is pure
// latency), batch submission runs on the node's serial I/O submission
// thread and occupies host CPU — so under heavy traffic the doorbell
// rate, not the flash, is what saturates first unless batches
// amortize it.
//
// issued (optional) fires when the submission thread has finished the
// batch's software work and is free for the next doorbell; schedulers
// use it to accumulate the next batch instead of committing early to
// many small doorbells.
//
// The node takes ownership of reqs: the slice is recycled internally
// once the doorbell's RPC has issued every request, so callers must
// not touch it after the call. Obtain a recycled slice with GetBatch
// to make steady-state submission allocation-free.
func (n *Node) SubmitHostBatch(reqs []HostReq, issued func()) {
	if len(reqs) == 0 {
		return
	}
	h := n.Host.Config()
	cost := h.SoftwareOverhead + sim.Time(len(reqs))*h.BatchRequestOverhead
	//simlint:allow hotcall (one doorbell closure per batch, amortized over every request the batch carries)
	n.ioThread.Do(cost, func() {
		if issued != nil {
			issued()
		}
		//simlint:allow escapecheck (one RPC continuation per batch, amortized like the doorbell closure above)
		n.Host.RPC(func() {
			for i := range reqs {
				r := reqs[i]
				done := r.Done
				switch {
				case r.Erase:
					//simlint:allow escapecheck (per-request error adapter inside the batch loop; bounded by batch size and hidden under flash latency)
					n.issueHostErase(r.Addr, r.Background, func(err error) { done(nil, err) })
				case r.Write:
					//simlint:allow escapecheck (per-request error adapter inside the batch loop; bounded by batch size and hidden under flash latency)
					n.issueHostWrite(r.Addr, r.Data, r.Background, func(err error) { done(nil, err) })
				default:
					n.issueHostRead(r.Addr, r.Background, r.Done)
				}
				reqs[i] = HostReq{}
			}
			n.batchFree = append(n.batchFree, reqs[:0])
		})
	})
}

// GetBatch returns a zero-length HostReq slice for building the next
// doorbell batch, reusing storage from a batch the node has finished
// issuing when one is available.
func (n *Node) GetBatch() []HostReq {
	if k := len(n.batchFree); k > 0 {
		b := n.batchFree[k-1]
		n.batchFree[k-1] = nil
		n.batchFree = n.batchFree[:k-1]
		return b
	}
	return nil
}

// hostIface picks the foreground or background flash interface of a
// local card.
func (n *Node) hostIface(card int, bg bool) *flashserver.Iface {
	if bg {
		return n.bgIfaces[card]
	}
	return n.hostIfaces[card]
}

// issueHostRead is the device-side read path of a batch: flash or
// network fetch, then DMA into a host read buffer and the completion
// interrupt.
func (n *Node) issueHostRead(a PageAddr, bg bool, cb func(data []byte, err error)) {
	deliver := func(data []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		n.Host.AcquireReadBuffer(len(data), func(buf int) {
			n.Host.ReleaseReadBuffer(buf)
			cb(data, nil)
		}, func(buf int) {
			n.Host.DeviceWriteChunk(buf, len(data), true)
		})
	}
	if a.Node == n.id {
		n.hostIface(a.Card, bg).ReadPhysical(a.Addr, deliver)
		return
	}
	n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, bg: bg}, a.Node, deliver)
}

// issueHostWrite is the device-side write path of a batch: write
// buffer, PCIe DMA down, then flash (local) or network (remote).
func (n *Node) issueHostWrite(a PageAddr, data []byte, bg bool, done func(err error)) {
	n.Host.AcquireWriteBuffer(func(_ int) {
		n.Host.DeviceReadBuffer(len(data), func() {
			fin := func(err error) {
				n.Host.ReleaseWriteBuffer()
				done(err)
			}
			if a.Node == n.id {
				n.hostIface(a.Card, bg).WritePhysical(a.Addr, data, fin)
				return
			}
			n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, write: true, data: data, bg: bg}, a.Node,
				func(_ []byte, err error) { fin(err) })
		})
	})
}

// issueHostErase is the device-side erase path of a batch: no data
// movement, just the flash command — local via the background host
// interface, remote over the integrated network.
func (n *Node) issueHostErase(a PageAddr, bg bool, done func(err error)) {
	if a.Node == n.id {
		n.hostIface(a.Card, bg).Erase(a.Addr, done)
		return
	}
	n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, erase: true, bg: bg}, a.Node,
		func(_ []byte, err error) { done(err) })
}

// HostRead fetches a page into host memory via the selected access
// path, filling tr (optional) with the latency decomposition.
func (n *Node) HostRead(a PageAddr, path AccessPath, tr *Trace, cb func(data []byte, err error)) {
	start := n.cluster.Eng.Now()
	h := n.Host.Config()
	net := n.cluster.Net.Config()
	hops := n.cluster.Hops(n.id, a.Node)

	finish := func(data []byte, err error) {
		if tr != nil {
			tr.Total = n.cluster.Eng.Now() - start
			tr.Network = sim.Time(2*hops) * net.HopLatency
			if path != PathHD {
				tr.Storage = n.cluster.Params.FlashTiming.ReadPage
			} else {
				tr.Storage = n.cluster.Params.DRAMLatency
			}
			switch path {
			case PathHRHF:
				tr.Software += h.InterruptLatency + h.SoftwareOverhead + h.RPCLatency
			case PathHD:
				tr.Software += h.InterruptLatency + h.LightSoftware + h.RPCLatency
			}
			rest := tr.Total - tr.Network - tr.Storage - tr.Software
			if rest < 0 {
				rest = 0
			}
			tr.Transfer = rest
		}
		cb(data, err)
	}

	// Host software issues the request, then rings the RPC doorbell.
	// Flash paths go through the storage stack; the DRAM path is a
	// lightweight client library.
	issue := n.Host.ChargeSoftware
	issueCost := h.SoftwareOverhead
	if path == PathHD {
		issue = n.Host.ChargeLightSoftware
		issueCost = h.LightSoftware
	}
	issue(func() {
		if tr != nil {
			tr.Software += issueCost + h.RPCLatency
		}
		n.Host.RPC(func() {
			deliver := func(data []byte, err error) {
				if err != nil {
					finish(nil, err)
					return
				}
				// DMA the page into a host read buffer; interrupt.
				n.Host.AcquireReadBuffer(len(data), func(buf int) {
					if tr != nil {
						tr.Software += h.InterruptLatency
					}
					n.Host.ReleaseReadBuffer(buf)
					finish(data, nil)
				}, func(buf int) {
					n.Host.DeviceWriteChunk(buf, len(data), true)
				})
			}
			switch {
			case a.Node == n.id:
				n.hostIfaces[a.Card].ReadPhysical(a.Addr, deliver)
			case path == PathHD:
				// §6.4: in the H-D case (like H-RH-F) the request is
				// processed by the remote server, not the remote ISP.
				n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, dram: true, viaHost: true}, a.Node, deliver)
			case path == PathHRHF:
				n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, viaHost: true}, a.Node, deliver)
			default: // PathHF, PathISPF degenerate to direct remote flash
				n.remoteReq(reqMsg{card: a.Card, addr: a.Addr}, a.Node, deliver)
			}
		})
	})
}

// HostWrite stores a page from host memory to any flash page in the
// cluster: write buffer, RPC, PCIe DMA down, then flash (local) or
// network (remote).
func (n *Node) HostWrite(a PageAddr, data []byte, cb func(err error)) {
	n.Host.ChargeSoftware(func() {
		n.Host.AcquireWriteBuffer(func(_ int) {
			n.Host.RPC(func() {
				n.Host.DeviceReadBuffer(len(data), func() {
					done := func(err error) {
						n.Host.ReleaseWriteBuffer()
						cb(err)
					}
					if a.Node == n.id {
						n.hostIfaces[a.Card].WritePhysical(a.Addr, data, done)
						return
					}
					n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, write: true, data: data}, a.Node,
						func(_ []byte, err error) { done(err) })
				})
			})
		})
	})
}
