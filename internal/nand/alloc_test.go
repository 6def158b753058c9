package nand

import (
	"testing"

	"repro/internal/sim"
)

// Measured heap objects of one completed page read and one completed
// page program on an idle card. They are ceilings: lower them when the
// path gets leaner. What remains are the three per-operation closures:
// the chip-queue op, the bus-transfer continuation and the cell-time
// (read) or program-time (program) event.
const (
	readPageAllocCeiling    = 3
	programPageAllocCeiling = 3
)

// readOnePage programs one page and returns a function that reads it
// back, running the engine until the read completes.
func readOnePage(tb testing.TB) (*Card, func()) {
	tb.Helper()
	eng := sim.NewEngine()
	c, err := NewCard(eng, "alloc", testGeometry(), DefaultTiming(), Reliability{BitErrorRate: 1e-4}, 3)
	if err != nil {
		tb.Fatal(err)
	}
	a := Addr{0, 0, 0, 0}
	c.ProgramPage(a, mkPage(c, 0x5a), func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	})
	eng.Run()
	done := 0
	cb := func(_ []byte, _ []int, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		done++
	}
	return c, func() {
		want := done + 1
		c.ReadPage(a, cb)
		eng.Run()
		if done != want {
			tb.Fatal("read did not complete")
		}
	}
}

// programPages returns a function that programs the next page of one
// block with a preallocated page, erasing the block when it is full.
func programPages(tb testing.TB) (*Card, func()) {
	tb.Helper()
	eng := sim.NewEngine()
	c, err := NewCard(eng, "alloc", testGeometry(), DefaultTiming(), Reliability{}, 3)
	if err != nil {
		tb.Fatal(err)
	}
	page := mkPage(c, 0xa5)
	next := 0
	cb := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return c, func() {
		if next == c.Geometry().PagesPerBlock {
			c.EraseBlock(Addr{}, cb)
			next = 0
		}
		c.ProgramPage(Addr{0, 0, 0, next}, page, cb)
		next++
		eng.Run()
	}
}

// TestReadPageAllocCeiling pins the allocations of one page read,
// flip list included, at their measured value.
func TestReadPageAllocCeiling(t *testing.T) {
	_, read := readOnePage(t)
	for i := 0; i < 50; i++ {
		read() // warm the event pool, the chip ring and the flip scratch
	}
	if n := testing.AllocsPerRun(200, read); n > readPageAllocCeiling {
		t.Fatalf("a page read allocates %.1f objects, ceiling %d", n, readPageAllocCeiling)
	}
}

// TestProgramPageAllocCeiling pins the allocations of one page program
// at their measured value; the card keeps the caller's page, so none
// of them is a page buffer.
func TestProgramPageAllocCeiling(t *testing.T) {
	c, program := programPages(t)
	for i := 0; i < c.Geometry().PagesPerBlock; i++ {
		program()
	}
	if n := testing.AllocsPerRun(c.Geometry().PagesPerBlock, program); n > programPageAllocCeiling {
		t.Fatalf("a page program allocates %.1f objects, ceiling %d", n, programPageAllocCeiling)
	}
}

// BenchmarkReadPage times one completed page read.
func BenchmarkReadPage(b *testing.B) {
	c, read := readOnePage(b)
	b.SetBytes(int64(c.Geometry().PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// BenchmarkProgramPage times one completed page program.
func BenchmarkProgramPage(b *testing.B) {
	c, program := programPages(b)
	b.SetBytes(int64(c.Geometry().PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		program()
	}
}
