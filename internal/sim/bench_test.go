package sim

import "testing"

// BenchmarkEngineAfterStep measures the raw schedule+fire cycle: one
// pooled event through a wheel lane per iteration.
func BenchmarkEngineAfterStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(3*Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineMixedHorizon stresses the full geometry: same-tick,
// wheel-lane and far-heap events interleaved, as a real stack
// produces them.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	far := Time(wheelSlots<<tickBits) * 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(0, fn)
		e.After(Time(i%200)*Microsecond, fn)
		e.After(far, fn)
		e.Run()
	}
}

// denseTick loads e with streams self-rearming callbacks at delays
// of 0-4095 ns, the fabric-mix pattern: with 200 streams about 200
// events are pending at any moment, all within the next 4 us, and a
// quarter of the rearms are sub-microsecond like a fabric hop. The
// callbacks are built here, so firing them allocates nothing.
func denseTick(e *Engine, streams int) {
	x := uint64(1)
	for i := 0; i < streams; i++ {
		var fn func()
		fn = func() {
			x = x*6364136223846793005 + 1442695040888963407
			e.After(Time(x>>52), fn)
		}
		e.After(Time(i), fn)
	}
}

// BenchmarkEngineDenseTick measures one fire+rearm (ns/op is host ns
// per event) with ~200 events pending inside every 4 us of virtual
// time.
func BenchmarkEngineDenseTick(b *testing.B) {
	e := NewEngine()
	denseTick(e, 200)
	for i := 0; i < 10_000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkPipeTransfer measures a serialized transfer with delivery
// callback through the pooled engine.
func BenchmarkPipeTransfer(b *testing.B) {
	e := NewEngine()
	p := NewPipe(e, "link", 1<<30, 2*Microsecond)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transfer(4096, fn)
		e.Run()
	}
}

// BenchmarkTokenPoolBlocked measures the acquire→block→release→serve
// cycle on the waiter ring.
func BenchmarkTokenPoolBlocked(b *testing.B) {
	tp := NewTokenPool("credits", 4)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Acquire(4, fn)
		tp.Acquire(2, fn)
		tp.Release(4)
		tp.Release(2)
	}
}
