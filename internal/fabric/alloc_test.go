package fabric

import (
	"testing"

	"repro/internal/sim"
)

// buildRing wires a 4-node ring with endpoint 0 bound everywhere.
func buildRing(t *testing.T) (*sim.Engine, *Network, []*Endpoint) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := Ring(4, 1).Build(eng, DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, net.Nodes())
	for i := range eps {
		ep, err := net.Node(NodeID(i)).BindEndpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eng, net, eps
}

// The fabric send path — segmentation, injection, credit waits,
// per-hop forwarding, delivery — must not allocate in steady state.
// This is the path the cache tier's invalidation broadcasts ride, so
// an allocation here is a GC-pressure regression for every
// cross-node write.
func TestSendPathAllocFree(t *testing.T) {
	eng, _, eps := buildRing(t)
	var delivered int
	for _, ep := range eps {
		ep.OnReceive = func(src NodeID, size int, payload any) { delivered++ }
	}
	// Warm: segments pooled, credit rings and pipe pools grown, every
	// (endpoint, dst) route exercised — including multi-segment (MTU
	// crossing) and two-hop sends.
	for rep := 0; rep < 4; rep++ {
		for i, ep := range eps {
			for d := 0; d < len(eps); d++ {
				if err := ep.Send(NodeID(d), 4096, nil, nil); err != nil {
					t.Fatalf("send %d->%d: %v", i, d, err)
				}
			}
		}
		eng.Run()
	}

	if n := testing.AllocsPerRun(500, func() {
		for _, ep := range eps {
			for d := 0; d < len(eps); d++ {
				_ = ep.Send(NodeID(d), 4096, nil, nil)
			}
		}
		eng.Run()
	}); n != 0 {
		t.Fatalf("fabric send cycle allocates %.1f objects, want 0", n)
	}
	if delivered == 0 {
		t.Fatal("no messages delivered")
	}
}

// Invalidation-shaped traffic: small single-segment control messages
// with a pooled payload pointer, broadcast from one node to every
// other. Zero allocations once warm.
func TestBroadcastSmallMessageAllocFree(t *testing.T) {
	eng, _, eps := buildRing(t)
	type inv struct{ lpn int }
	msg := &inv{}
	got := 0
	for _, ep := range eps {
		ep.OnReceive = func(src NodeID, size int, payload any) {
			if payload.(*inv) != msg {
				t.Error("payload pointer mangled")
			}
			got++
		}
	}
	for d := 1; d < len(eps); d++ {
		_ = eps[0].Send(NodeID(d), 16, msg, nil)
	}
	eng.Run()

	if n := testing.AllocsPerRun(500, func() {
		for d := 1; d < len(eps); d++ {
			_ = eps[0].Send(NodeID(d), 16, msg, nil)
		}
		eng.Run()
	}); n != 0 {
		t.Fatalf("invalidation broadcast allocates %.1f objects, want 0", n)
	}
	if got == 0 {
		t.Fatal("no invalidations delivered")
	}
}

// Saturating a link past its credit depth exercises the waiter ring's
// head-index recycling: a drained ring must rewind, not creep forward
// until append reallocates.
func TestCreditWaiterRingAllocFree(t *testing.T) {
	eng, _, eps := buildRing(t)
	for _, ep := range eps {
		ep.OnReceive = func(NodeID, int, any) {}
	}
	burst := func() {
		// 64 MTU-sized segments into a 16-credit link direction.
		for i := 0; i < 16; i++ {
			_ = eps[0].Send(1, 4*1024, nil, nil)
		}
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Fatalf("credit-saturated burst allocates %.1f objects, want 0", n)
	}
}

// ringForward builds the paper's 20-node ring (four lanes between
// neighbours) and returns a step that sends one 8 KB page from node 0
// to node 10, ten hops away, and runs the engine until it is
// delivered: 8 segments, each forwarded hop by hop.
func ringForward(tb testing.TB) (step func(), delivered *int) {
	tb.Helper()
	eng := sim.NewEngine()
	net, err := Ring(20, 4).Build(eng, DefaultConfig(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := net.Node(0).BindEndpoint(0)
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := net.Node(10).BindEndpoint(0)
	if err != nil {
		tb.Fatal(err)
	}
	delivered = new(int)
	dst.OnReceive = func(NodeID, int, any) { *delivered++ }
	step = func() {
		if err := src.Send(10, 8192, nil, nil); err != nil {
			tb.Fatal(err)
		}
		eng.Run()
	}
	return step, delivered
}

// Multi-hop forwarding — route lookup, forwarding credit, wire
// transfer and arrival at every hop — allocates nothing once warm.
func TestRingForwardAllocFree(t *testing.T) {
	step, delivered := ringForward(t)
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("10-hop page forward allocates %.1f objects, want 0", n)
	}
	// One warm step, AllocsPerRun's own warm-up run, then 200 runs.
	if *delivered != 202 {
		t.Fatalf("delivered %d messages, want 202", *delivered)
	}
}

// BenchmarkRingForward measures one 8 KB page across ten hops of the
// 20-node ring: 80 segment hops per op.
func BenchmarkRingForward(b *testing.B) {
	step, _ := ringForward(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
