// Package fabric models BlueDBM's integrated storage network (paper
// §3.2): a packet-switched mesh of storage devices connected by
// high-speed serial links, with
//
//   - a link layer using token-based (credit) flow control, so packets
//     are never dropped and backpressure propagates (§3.2.2);
//   - external switches that forward packets hop by hop without a
//     separate router box, and internal switches that deliver traffic
//     to local components (§3.2, Figure 4);
//   - deterministic per-endpoint routing: all packets from one logical
//     endpoint to one destination take the same path, preserving FIFO
//     order without completion buffers, while different endpoints may
//     spread over different paths (§3.2.3, Figure 6);
//   - logical endpoints with virtual-channel semantics and optional
//     end-to-end flow control (§3.2.1, §3.2.3).
//
// Links model the paper's 10 Gbps serial transceivers: 0.48 µs per hop
// and ~8.2 Gbps effective payload bandwidth after 8b/10b and protocol
// overhead (§5.2, Figure 11).
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Fabric errors.
var (
	ErrNoRoute      = errors.New("fabric: no route to destination")
	ErrPortsFull    = errors.New("fabric: node has no free ports")
	ErrBadEndpoint  = errors.New("fabric: bad endpoint index")
	ErrNotConnected = errors.New("fabric: topology is not connected")
)

// NodeID numbers a storage node in the cluster.
type NodeID int

// Config sets the physical parameters of every link in the network.
type Config struct {
	// LinkBytesPerSec is the effective payload bandwidth of one link
	// (wire rate minus encoding/protocol overhead). The paper's links
	// run 10 Gbps on the wire and sustain 8.2 Gbps of payload.
	LinkBytesPerSec int64
	// HopLatency is the switch traversal + wire propagation per hop.
	HopLatency sim.Time
	// InternalLatency is the internal-switch delivery latency for
	// traffic terminating at (or sourced by) the local node.
	InternalLatency sim.Time
	// HeaderBytes is the per-segment header carried on the wire.
	HeaderBytes int
	// MTU is the maximum payload bytes per wire segment. Larger sends
	// are cut into MTU segments, which pipeline across hops the way the
	// hardware streams flits (cut-through-like behaviour).
	MTU int
	// LinkTokens is the credit depth per link direction: how many
	// segments the receiver can buffer. Token exhaustion backpressures
	// the sender (§3.2.2). Each direction additionally carries one
	// reserved forwarding credit that only in-transit segments may
	// consume (bubble flow control): a source injection must leave at
	// least one credit free, so a cycle of saturated links — a ring at
	// full load — always keeps a bubble that lets forwarded segments
	// drain instead of deadlocking on the hold-and-wait between an
	// inbound and an outbound credit.
	LinkTokens int
	// PortsPerNode bounds the fan-out, 8 in the paper's hardware.
	PortsPerNode int
}

// DefaultConfig matches the paper's implementation (§5.2).
func DefaultConfig() Config {
	return Config{
		LinkBytesPerSec: 1_025_000_000, // 8.2 Gbps effective
		HopLatency:      480 * sim.Nanosecond,
		InternalLatency: 100 * sim.Nanosecond,
		HeaderBytes:     8,
		MTU:             1024,
		LinkTokens:      16,
		PortsPerNode:    8,
	}
}

// segment is the wire unit: one MTU-or-smaller piece of a message.
// Segments of one message arrive contiguously in order (routing is
// deterministic per endpoint and links are FIFO), so no sequence
// number is needed for reassembly.
//
// Segments are pooled per Network (getSeg/putSeg) and carry their
// continuation callbacks pre-bound: one segment traverses inject →
// transmit → arrive* → deliver entirely through the five closures
// built once at pool-entry creation, so the steady-state send path —
// including the cache tier's invalidation broadcasts — performs zero
// allocations.
//
//simlint:pool get=getSeg put=putSeg
type segment struct {
	src, dst NodeID
	ep       int  // logical endpoint index
	last     bool // final segment of its message
	payload  int  // payload bytes in this segment
	msgBytes int  // total payload bytes of the message
	body     any  // user payload; carried on the last segment
	ctrl     bool // end-to-end credit return, bypasses e2e windows
	wantAck  bool // sender runs e2e flow control; return a credit

	// traversal state, rebound at each step
	net     *Network
	curNode *Node     // node currently holding the segment
	in      *halfLink // link the segment arrived on (credit held)
	out     *halfLink // link the segment will leave on
	onAcc   func()    // sender's onAccepted; last segment only

	// pre-bound continuations (see getSeg)
	injGrantFn func() // injection credit granted
	fwdGrantFn func() // forwarding credit granted
	arriveFn   func() // wire transfer finished
	deliverFn  func() // internal switch delivered terminal segment
	localFn    func() // internal switch delivered same-node segment
}

// getSeg pops a recycled segment, or builds one with its five
// continuations bound to it. The closures read the segment's traversal
// fields at fire time, so one set serves every flight of the segment.
//
//simlint:hotpath
func (n *Network) getSeg() *segment {
	if len(n.segFree) > 0 {
		seg := n.segFree[len(n.segFree)-1]
		n.segFree[len(n.segFree)-1] = nil
		n.segFree = n.segFree[:len(n.segFree)-1]
		return seg
	}
	//simlint:allow hotpath (pool-miss path: the segment and its five bound callbacks are built once and recycled via putSeg forever after)
	seg := &segment{net: n}
	//simlint:allow hotpath (bound once per pooled segment lifetime, not per send)
	seg.injGrantFn = func() {
		if seg.onAcc != nil {
			seg.onAcc()
		}
		seg.curNode.transmit(seg)
	}
	//simlint:allow hotpath (bound once per pooled segment lifetime, not per send)
	seg.fwdGrantFn = func() {
		seg.in.credits.release()
		seg.curNode.transmit(seg)
	}
	//simlint:allow hotpath (bound once per pooled segment lifetime, not per send)
	seg.arriveFn = func() {
		seg.out.to.arrive(seg)
	}
	//simlint:allow hotpath (bound once per pooled segment lifetime, not per send)
	seg.deliverFn = func() {
		in := seg.in // deliver recycles seg; read the credit first
		seg.curNode.deliver(seg)
		in.credits.release()
	}
	//simlint:allow hotpath (bound once per pooled segment lifetime, not per send)
	seg.localFn = func() {
		acc := seg.onAcc // deliver recycles seg; read the ack first
		seg.curNode.deliver(seg)
		if acc != nil {
			acc()
		}
	}
	return seg
}

// putSeg recycles a delivered (or dropped) segment. The caller must
// guarantee no outstanding reference — every continuation of the
// segment's current flight has fired or will never fire.
//
//simlint:hotpath
func (n *Network) putSeg(seg *segment) {
	seg.body = nil
	seg.onAcc = nil
	seg.curNode = nil
	seg.in, seg.out = nil, nil
	n.segFree = append(n.segFree, seg)
}

// halfLink is one direction of a physical link.
type halfLink struct {
	pipe    *sim.Pipe
	credits *linkCredits
	to      *Node
	toPort  int
}

// linkCredits is one link direction's credit store, implementing
// bubble flow control: capacity LinkTokens+1, where the extra credit
// is reserved for forwarded (in-transit) segments. A source injection
// must see two free credits and takes one, so it can never consume
// the last slot; a forwarder may take it. Waiters are served from ONE
// FIFO queue — the fairness property of plain credit flow control —
// with exactly one exception: when only the reserved credit remains
// and the queue head is an injection (which may not touch it), the
// first waiting forwarder overtakes it. A waiting forwarder holds a
// credit on its inbound link (hold-and-wait), so letting a stuck
// injection block it would reintroduce the cyclic-dependency deadlock
// the reserve exists to break; everywhere above the reserve, strict
// FIFO keeps injections live under sustained transit load (at the
// degenerate LinkTokens=1 there is no headroom above the reserve, so
// saturating transit lawfully monopolizes the link until it idles).
// Grants within each class stay in order, so per-flow segment
// ordering is unaffected (a flow only ever injects at its source and
// only ever forwards at transit nodes).
// The waiter queue is a head-indexed ring over one backing slice:
// popping advances head instead of reslicing, so the slice's capacity
// is reused forever and steady-state enqueue/serve never allocates
// (reslicing `q = q[1:]` would walk the backing array forward until
// every append reallocates).
type linkCredits struct {
	free int
	q    []linkWaiter
	head int // index of the queue front within q
}

type linkWaiter struct {
	fwd bool // forwarder (needs 1 free) vs injection (needs 2)
	fn  func()
}

//simlint:hotpath
func (lc *linkCredits) acquireFwd(fn func()) { lc.enqueue(linkWaiter{fwd: true, fn: fn}) }

//simlint:hotpath
func (lc *linkCredits) acquireInj(fn func()) { lc.enqueue(linkWaiter{fwd: false, fn: fn}) }

//simlint:hotpath
func (lc *linkCredits) enqueue(w linkWaiter) {
	if lc.head == len(lc.q) {
		// No waiter queued: grant at once what serve would grant. A
		// send from inside fn sees the same empty queue either way.
		if lc.free >= w.need() {
			lc.free--
			w.fn()
			return
		}
		// Drained ring: rewind to the front of the backing array.
		lc.q = lc.q[:0]
		lc.head = 0
	}
	lc.q = append(lc.q, w)
	lc.serve()
}

// release returns one credit and serves waiters.
//
//simlint:hotpath
func (lc *linkCredits) release() {
	lc.free++
	lc.serve()
}

// need is the free-credit threshold to grant w (both take one).
func (w linkWaiter) need() int {
	if w.fwd {
		return 1
	}
	return 2
}

//simlint:hotpath
func (lc *linkCredits) serve() {
	for lc.head < len(lc.q) {
		head := lc.q[lc.head]
		if lc.free >= head.need() {
			lc.q[lc.head] = linkWaiter{}
			lc.head++
			lc.free--
			head.fn()
			continue
		}
		// Head is an injection and only the reserved credit remains:
		// the first waiting forwarder may take it past the head.
		if !head.fwd && lc.free == 1 {
			for i := lc.head + 1; i < len(lc.q); i++ {
				if lc.q[i].fwd {
					w := lc.q[i]
					copy(lc.q[i:], lc.q[i+1:])
					lc.q[len(lc.q)-1] = linkWaiter{}
					lc.q = lc.q[:len(lc.q)-1]
					lc.free--
					w.fn()
					break
				}
			}
		}
		return
	}
	if lc.head > 0 {
		lc.q = lc.q[:0]
		lc.head = 0
	}
}

// Link is a full-duplex cable between two node ports.
type Link struct {
	a, b   *Node
	ab, ba *halfLink
	aPort  int
	bPort  int
}

// Network is the cluster-wide fabric.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes []*Node
	links []*Link

	// segFree recycles wire segments and their bound continuations
	// (getSeg/putSeg); the population converges on the peak number of
	// segments simultaneously in flight.
	segFree []*segment

	// stats
	Delivered  sim.Counter
	SegsMoved  sim.Counter
	BytesMoved sim.Counter
}

// Node is one storage device's network personality: its ports, its
// switch, and its logical endpoints.
type Node struct {
	net       *Network
	id        NodeID
	ports     []*halfLink // outgoing half-links by port index; nil = free
	portPeer  []NodeID    // neighbor on each port, -1 = free
	endpoints []*Endpoint // by endpoint index; nil = unbound
	// routes[ep+1][dst] = output port, -1 = no entry; a nil table
	// means ep has none. Slot 0 is DefaultEP's table: the default
	// routes used by endpoints with no specific entry.
	routes [][]int
}

// DefaultEP is the endpoint index of a node's default routing table:
// SetRoute(DefaultEP, dst, port) configures the route every endpoint
// without a private entry for dst will use.
const DefaultEP = -1

// New creates a network with n nodes and no links.
func New(eng *sim.Engine, cfg Config, n int) *Network {
	net := &Network{eng: eng, cfg: cfg}
	for i := 0; i < n; i++ {
		node := &Node{
			net:      net,
			id:       NodeID(i),
			ports:    make([]*halfLink, cfg.PortsPerNode),
			portPeer: make([]NodeID, cfg.PortsPerNode),
		}
		for p := range node.portPeer {
			node.portPeer[p] = -1
		}
		net.nodes = append(net.nodes, node)
	}
	return net
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Node returns node i.
func (n *Network) Node(i NodeID) *Node { return n.nodes[i] }

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// Links returns the number of physical cables.
func (n *Network) Links() int { return len(n.links) }

// Connect cables nodes a and b together using their lowest free ports.
// Multiple parallel cables between the same pair are allowed (the
// paper's ring uses 4 lanes between neighbors).
func (n *Network) Connect(a, b NodeID) error {
	na, nb := n.nodes[a], n.nodes[b]
	pa, pb := na.freePort(), nb.freePort()
	if pa < 0 {
		return fmt.Errorf("%w: node %d", ErrPortsFull, a)
	}
	if pb < 0 {
		return fmt.Errorf("%w: node %d", ErrPortsFull, b)
	}
	mk := func(dir string, to *Node, toPort int) *halfLink {
		name := fmt.Sprintf("link%d-%d/%s", a, b, dir)
		return &halfLink{
			// +1 is the reserved forwarding credit (bubble flow
			// control); see linkCredits.
			pipe:    sim.NewPipe(n.eng, name, n.cfg.LinkBytesPerSec, n.cfg.HopLatency),
			credits: &linkCredits{free: n.cfg.LinkTokens + 1},
			to:      to,
			toPort:  toPort,
		}
	}
	l := &Link{a: na, b: nb, aPort: pa, bPort: pb}
	l.ab = mk("ab", nb, pb)
	l.ba = mk("ba", na, pa)
	na.ports[pa] = l.ab
	na.portPeer[pa] = b
	nb.ports[pb] = l.ba
	nb.portPeer[pb] = a
	n.links = append(n.links, l)
	return nil
}

func (nd *Node) freePort() int {
	for i, p := range nd.ports {
		if p == nil {
			return i
		}
	}
	return -1
}

// ID returns the node's identity.
func (nd *Node) ID() NodeID { return nd.id }

// Neighbors returns the distinct node IDs wired to this node.
func (nd *Node) Neighbors() []NodeID {
	var out []NodeID
	seen := map[NodeID]bool{}
	for _, peer := range nd.portPeer {
		if peer >= 0 && !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	return out
}

// ComputeRoutes fills every node's routing tables with deterministic
// shortest-path routes. For each (endpoint, destination) the next hop
// is fixed, but different endpoints rotate across equal-cost ports, so
// traffic from different endpoints spreads over parallel links while
// each endpoint's stream stays FIFO (paper §3.2.3). maxEndpoint is the
// highest endpoint index routes are precomputed for.
func (n *Network) ComputeRoutes(maxEndpoint int) error {
	nn := len(n.nodes)
	// dist[d][v]: hop count from v to d.
	for d := 0; d < nn; d++ {
		dist := n.bfs(NodeID(d))
		for v := 0; v < nn; v++ {
			if v == d {
				continue
			}
			if dist[v] < 0 {
				return fmt.Errorf("%w: node %d cannot reach %d", ErrNotConnected, v, d)
			}
			// Candidate ports: neighbors one hop closer to d.
			node := n.nodes[v]
			var cands []int
			for p, peer := range node.portPeer {
				if peer >= 0 && dist[peer] == dist[v]-1 {
					cands = append(cands, p)
				}
			}
			if len(cands) == 0 {
				return fmt.Errorf("%w: node %d has no next hop to %d", ErrNotConnected, v, d)
			}
			for ep := 0; ep <= maxEndpoint; ep++ {
				node.routeTable(ep)[d] = cands[(ep+d)%len(cands)]
			}
		}
	}
	return nil
}

// bfs returns hop distances from every node to dst (-1 = unreachable).
func (n *Network) bfs(dst NodeID) []int {
	dist := make([]int, len(n.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, peer := range n.nodes[v].portPeer {
			if peer >= 0 && dist[peer] < 0 {
				dist[peer] = dist[v] + 1
				queue = append(queue, peer)
			}
		}
	}
	return dist
}

// SetRoute overrides the route for one (endpoint, destination) pair on
// a node — the "routing configured dynamically by the software" hook.
func (nd *Node) SetRoute(ep int, dst NodeID, port int) error {
	if port < 0 || port >= len(nd.ports) || nd.ports[port] == nil {
		return fmt.Errorf("fabric: node %d port %d is not cabled", nd.id, port)
	}
	if ep < DefaultEP {
		return fmt.Errorf("%w: %d has no routing table", ErrBadEndpoint, ep)
	}
	if dst < 0 || int(dst) >= len(nd.net.nodes) {
		return fmt.Errorf("%w: destination %d", ErrNoRoute, dst)
	}
	nd.routeTable(ep)[dst] = port
	return nil
}

// routeTable returns ep's routing table (DefaultEP's for the default
// routes), creating it with no entries when ep has none yet.
func (nd *Node) routeTable(ep int) []int {
	i := ep + 1
	if i >= len(nd.routes) {
		nd.routes = append(nd.routes, make([][]int, i+1-len(nd.routes))...)
	}
	if nd.routes[i] == nil {
		tbl := make([]int, len(nd.net.nodes))
		for d := range tbl {
			tbl[d] = -1
		}
		nd.routes[i] = tbl
	}
	return nd.routes[i]
}

// route returns ep's own output port for dst, or -1 when ep has no
// table or no entry for dst.
//
//simlint:hotpath
func (nd *Node) route(ep int, dst NodeID) int {
	i := ep + 1
	if uint(i) >= uint(len(nd.routes)) || nd.routes[i] == nil {
		return -1
	}
	return nd.routes[i][dst]
}

// routePort resolves the output port for (ep, dst). Endpoints with no
// private entry fall back to the default table (DefaultEP, the
// software-configured catch-all of SetRoute), and then — for
// compatibility with deployments that predate the default table — to
// endpoint 0's table.
//
//simlint:hotpath
func (nd *Node) routePort(ep int, dst NodeID) (int, error) {
	if p := nd.route(ep, dst); p >= 0 {
		return p, nil
	}
	if p := nd.route(DefaultEP, dst); p >= 0 {
		return p, nil
	}
	if p := nd.route(0, dst); p >= 0 {
		return p, nil
	}
	//simlint:allow hotpath (error path: allocates only when no route exists, which fails the injection anyway)
	return 0, fmt.Errorf("%w: node %d ep %d -> node %d", ErrNoRoute, nd.id, ep, dst)
}

// inject starts a segment from its source node: route lookup, token
// acquire, wire transfer. The segment's onAcc fires once the segment
// is on the wire (source-side buffer freed), which is the sender's
// backpressure.
//
//simlint:hotpath
func (nd *Node) inject(seg *segment) error {
	seg.curNode = nd
	if seg.dst == nd.id {
		// Local delivery through the internal switch only.
		nd.net.eng.After(nd.net.cfg.InternalLatency, seg.localFn)
		return nil
	}
	port, err := nd.routePort(seg.ep, seg.dst)
	if err != nil {
		return err
	}
	seg.out = nd.ports[port]
	// Bubble flow control: a source injection must leave the reserved
	// forwarding credit free. arrive() holds a segment's inbound
	// credit while it waits for the outbound one (hold-and-wait), so a
	// traffic cycle — a saturated ring — could otherwise fill every
	// link and deadlock; with injections barred from the last credit,
	// every cycle always retains a bubble and forwarded segments drain.
	seg.out.credits.acquireInj(seg.injGrantFn)
	return nil
}

// transmit puts a segment on its outbound half-link (seg.out); arrival
// is handled by the peer's external switch.
//
//simlint:hotpath
func (nd *Node) transmit(seg *segment) {
	wire := seg.payload + nd.net.cfg.HeaderBytes
	nd.net.SegsMoved.Inc()
	nd.net.BytesMoved.Add(int64(seg.payload))
	seg.out.pipe.Transfer(wire, seg.arriveFn)
}

// arrive runs the external switch at a receiving node: deliver locally
// or forward toward the destination. The inbound token (seg.in, the
// link just traversed) is held until the segment leaves this node, so
// congestion backpressures upstream.
//
//simlint:hotpath
func (nd *Node) arrive(seg *segment) {
	seg.in = seg.out
	seg.curNode = nd
	if seg.dst == nd.id {
		nd.net.eng.After(nd.net.cfg.InternalLatency, seg.deliverFn)
		return
	}
	port, err := nd.routePort(seg.ep, seg.dst)
	if err != nil {
		// No route mid-path is a wiring bug: drop loudly.
		panic(fmt.Sprintf("fabric: node %d cannot forward to %d: %v", nd.id, seg.dst, err))
	}
	seg.out = nd.ports[port]
	seg.out.credits.acquireFwd(seg.fwdGrantFn)
}

// deliver hands a segment to its endpoint and recycles it. OnReceive
// handlers that send from inside the callback draw fresh segments from
// the pool (this one is recycled only after receiveSegment returns).
//
//simlint:hotpath
func (nd *Node) deliver(seg *segment) {
	ep := nd.Endpoint(seg.ep)
	if ep == nil {
		// Delivery to an unbound endpoint is silently dropped, like
		// hardware writing to an unselected channel.
		nd.net.putSeg(seg)
		return
	}
	last, ctrl := seg.last, seg.ctrl
	ep.receiveSegment(seg)
	if last && !ctrl {
		nd.net.Delivered.Inc()
	}
	nd.net.putSeg(seg)
}

// LinkUtilization reports the utilization of each direction of every
// link, for load-distribution experiments.
func (n *Network) LinkUtilization() []float64 {
	var out []float64
	for _, l := range n.links {
		out = append(out, l.ab.pipe.Utilization(), l.ba.pipe.Utilization())
	}
	return out
}
