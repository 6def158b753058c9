package hostif

import (
	"testing"

	"repro/internal/sim"
)

// pageOnBuffer returns an engine, a host interface and a read buffer
// acquired on it, plus a function that moves one whole page through
// that buffer: a single DeviceWriteChunk, then the engine drains the
// page's DMA bursts.
func pageOnBuffer(tb testing.TB) (*HostIf, func()) {
	tb.Helper()
	eng := sim.NewEngine()
	h, err := New(eng, "a", DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	buf := -1
	h.AcquireReadBuffer(h.Config().PageBytes, nil, func(b int) { buf = b })
	eng.Run()
	if buf < 0 {
		tb.Fatal("read buffer not granted")
	}
	page := h.Config().PageBytes
	return h, func() {
		h.DeviceWriteChunk(buf, page, true)
		eng.Run()
	}
}

// TestDeviceWriteChunkPageAllocFree pins the device-to-host DMA path
// at zero allocations: a whole page on an acquired buffer is 16 DMA
// bursts, and each burst reuses the buffer's completion callback.
func TestDeviceWriteChunkPageAllocFree(t *testing.T) {
	h, movePage := pageOnBuffer(t)
	movePage() // warm the engine's event pool
	before := h.ToHostBytes()
	if n := testing.AllocsPerRun(200, movePage); n != 0 {
		t.Fatalf("DeviceWriteChunk of a whole page allocates %.1f objects, want 0", n)
	}
	if got, want := h.ToHostBytes()-before, int64(201*h.Config().PageBytes); got != want {
		t.Fatalf("%d bytes crossed PCIe over 201 pages, want %d", got, want)
	}
}

// BenchmarkDeviceWriteChunkPage times one whole page through a read
// buffer's DMA bursts, engine events included.
func BenchmarkDeviceWriteChunkPage(b *testing.B) {
	h, movePage := pageOnBuffer(b)
	b.SetBytes(int64(h.Config().PageBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		movePage()
	}
}
