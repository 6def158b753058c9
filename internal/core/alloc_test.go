package core

import (
	"testing"
)

// hostReadPageAllocCeiling is the measured number of heap objects one
// completed local HostRead of a page allocates, from the storage-stack
// charge through flash, ECC correction and the DMA bursts to the completion
// interrupt. It is a ceiling: lower it when the path gets leaner.
const hostReadPageAllocCeiling = 18

// localHostRead writes one page on node 0's first card and returns a
// function that reads it back into host memory through HostRead and
// runs the cluster until the read completes.
func localHostRead(tb testing.TB) (*Cluster, func()) {
	tb.Helper()
	c, err := NewCluster(testParams(1))
	if err != nil {
		tb.Fatal(err)
	}
	n0 := c.Node(0)
	a := LinearPage(c.Params, 0, 0)
	n0.WriteLocal(a.Card, a.Addr, fill(3, c.Params.PageSize()), func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	})
	c.Run()
	done := 0
	cb := func(data []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		done++
	}
	return c, func() {
		want := done + 1
		n0.HostRead(a, PathHF, nil, cb)
		c.Run()
		if done != want {
			tb.Fatal("host read did not complete")
		}
	}
}

// TestHostReadPageAllocCeiling pins the allocations of one completed
// local host page read at its measured value.
func TestHostReadPageAllocCeiling(t *testing.T) {
	_, read := localHostRead(t)
	read() // warm the engine's event pool and the per-node tables
	if n := testing.AllocsPerRun(100, read); n > hostReadPageAllocCeiling {
		t.Fatalf("a local HostRead page allocates %.1f objects, ceiling %d", n, hostReadPageAllocCeiling)
	}
}

// BenchmarkHostReadPage times one completed local host page read.
func BenchmarkHostReadPage(b *testing.B) {
	c, read := localHostRead(b)
	b.SetBytes(int64(c.Params.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}
