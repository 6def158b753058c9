package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testGeometry() Geometry {
	return Geometry{
		Buses: 2, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 16,
		PageSize: 512, OOBSize: 64,
	}
}

func perfectCard(t *testing.T, eng *sim.Engine) *Card {
	t.Helper()
	c, err := NewCard(eng, "t", testGeometry(), DefaultTiming(), Reliability{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkPage(c *Card, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, c.Geometry().PageSize)
}

func TestProgramReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	raw := mkPage(c, 0xab)
	want := bytes.Clone(raw) // the card keeps raw itself
	var progErr error = errors.New("not called")
	c.ProgramPage(a, raw, func(err error) { progErr = err })
	eng.Run()
	if progErr != nil {
		t.Fatalf("program: %v", progErr)
	}
	got, flips := readPage(t, eng, c, a)
	if !bytes.Equal(got, want) || len(flips) != 0 {
		t.Fatal("read returned different bytes than programmed")
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	var gotErr error
	c.ReadPage(Addr{0, 0, 0, 0}, func(_ []byte, _ []int, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrReadFree) {
		t.Fatalf("err = %v, want ErrReadFree", gotErr)
	}
}

func TestProgramTwiceFails(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 0, 0}
	c.ProgramPage(a, mkPage(c, 1), func(err error) {
		if err != nil {
			t.Fatalf("first program: %v", err)
		}
	})
	eng.Run()
	var second error
	c.ProgramPage(a, mkPage(c, 2), func(err error) { second = err })
	eng.Run()
	if !errors.Is(second, ErrNotErased) {
		t.Fatalf("second program err = %v, want ErrNotErased", second)
	}
}

func TestOutOfOrderProgramFails(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	var gotErr error
	c.ProgramPage(Addr{0, 0, 0, 5}, mkPage(c, 1), func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", gotErr)
	}
}

func TestEraseFreesBlock(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 3, 0}
	c.ProgramPage(a, mkPage(c, 7), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	c.EraseBlock(a, func(err error) {
		if err != nil {
			t.Fatalf("erase: %v", err)
		}
	})
	eng.Run()
	if c.State(a) != PageFree {
		t.Fatal("page not freed by erase")
	}
	if c.EraseCount(a) != 1 {
		t.Fatalf("erase count = %d, want 1", c.EraseCount(a))
	}
	// Reprogramming page 0 after erase works.
	var again error = errors.New("not called")
	c.ProgramPage(a, mkPage(c, 9), func(err error) { again = err })
	eng.Run()
	if again != nil {
		t.Fatalf("reprogram after erase: %v", again)
	}
}

func TestReadTiming(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 0, 0}
	c.ProgramPage(a, mkPage(c, 1), func(error) {})
	eng.Run()
	start := eng.Now()
	var done sim.Time
	c.ReadPage(a, func([]byte, []int, error) { done = eng.Now() })
	eng.Run()
	elapsed := done - start
	// Expected: 50us cell read + 576B @ 150MB/s (3.84us) + 200ns latency.
	tim := DefaultTiming()
	wire := sim.Time(int64(c.Geometry().StoredPageSize()) * int64(sim.Second) / tim.BusBytesPerSec)
	want := tim.ReadPage + wire + tim.BusLatency
	if elapsed != want {
		t.Fatalf("read latency = %v, want %v", elapsed, want)
	}
}

func TestChipSerialization(t *testing.T) {
	// Two reads on the same chip: the second cell read may start only
	// after the first one's register drains (modelled as cell-read end).
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 0, 0}
	b := Addr{0, 0, 0, 1}
	c.ProgramPage(a, mkPage(c, 1), func(error) {})
	eng.Run()
	c.ProgramPage(b, mkPage(c, 2), func(error) {})
	eng.Run()
	start := eng.Now()
	var t1, t2 sim.Time
	c.ReadPage(a, func([]byte, []int, error) { t1 = eng.Now() - start })
	c.ReadPage(b, func([]byte, []int, error) { t2 = eng.Now() - start })
	eng.Run()
	if t2 <= t1 {
		t.Fatalf("second read (%v) did not serialize after first (%v)", t2, t1)
	}
	// The second read's cell phase overlaps the first's bus transfer, so
	// it must NOT cost a full 2x.
	if t2 >= 2*t1 {
		t.Fatalf("no pipelining: t1=%v t2=%v", t1, t2)
	}
}

func TestBusParallelism(t *testing.T) {
	// Reads on different buses proceed fully in parallel.
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	b := Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}
	for _, addr := range []Addr{a, b} {
		c.ProgramPage(addr, mkPage(c, 3), func(error) {})
		eng.Run()
	}
	start := eng.Now()
	var t1, t2 sim.Time
	c.ReadPage(a, func([]byte, []int, error) { t1 = eng.Now() - start })
	c.ReadPage(b, func([]byte, []int, error) { t2 = eng.Now() - start })
	eng.Run()
	if t1 != t2 {
		t.Fatalf("parallel buses should finish together: %v vs %v", t1, t2)
	}
}

func TestCardBandwidthSaturation(t *testing.T) {
	// Saturating all buses of a card approaches Buses * BusBytesPerSec.
	// Uses full 8 KB pages: their 61 µs bus occupancy exceeds the 50 µs
	// cell read, so the bus — not the cell array — is the bottleneck,
	// as on the paper's flash board.
	eng := sim.NewEngine()
	geo := testGeometry()
	geo.PageSize = 8192
	geo.OOBSize = 1024
	c, err := NewCard(eng, "bw", geo, DefaultTiming(), Reliability{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Program every page of block 0 on every chip.
	pages := 0
	for bus := 0; bus < geo.Buses; bus++ {
		for chip := 0; chip < geo.ChipsPerBus; chip++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				c.ProgramPage(Addr{bus, chip, 0, p}, mkPage(c, byte(p)), func(err error) {
					if err != nil {
						t.Errorf("program: %v", err)
					}
				})
				pages++
			}
		}
	}
	eng.Run()
	start := eng.Now()
	done := 0
	for bus := 0; bus < geo.Buses; bus++ {
		for chip := 0; chip < geo.ChipsPerBus; chip++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				c.ReadPage(Addr{bus, chip, 0, p}, func(_ []byte, _ []int, err error) {
					if err != nil {
						t.Errorf("read: %v", err)
					}
					done++
				})
			}
		}
	}
	eng.Run()
	if done != pages {
		t.Fatalf("completed %d of %d reads", done, pages)
	}
	elapsed := (eng.Now() - start).Seconds()
	bw := float64(pages*geo.StoredPageSize()) / elapsed
	max := float64(geo.Buses) * float64(DefaultTiming().BusBytesPerSec)
	if bw > max {
		t.Fatalf("achieved %.0f B/s exceeds physical max %.0f", bw, max)
	}
	// With 2 chips/bus and 16 deep queues the bus should be well used.
	if bw < 0.5*max {
		t.Fatalf("achieved %.0f B/s, expected at least half of %.0f", bw, max)
	}
}

func TestBadBlockRejectsOps(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 2, 0}
	c.MarkBad(a)
	if !c.IsBad(a) {
		t.Fatal("MarkBad did not stick")
	}
	var pErr, rErr, eErr error
	c.ProgramPage(a, mkPage(c, 1), func(err error) { pErr = err })
	c.ReadPage(a, func(_ []byte, _ []int, err error) { rErr = err })
	c.EraseBlock(a, func(err error) { eErr = err })
	eng.Run()
	for name, err := range map[string]error{"program": pErr, "read": rErr, "erase": eErr} {
		if !errors.Is(err, ErrBadBlock) {
			t.Errorf("%s err = %v, want ErrBadBlock", name, err)
		}
	}
}

func TestWearOut(t *testing.T) {
	eng := sim.NewEngine()
	geo := testGeometry()
	rel := Reliability{EnduranceCycles: 10, WearOutProb: 1.0}
	c, err := NewCard(eng, "wear", geo, DefaultTiming(), rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{0, 0, 0, 0}
	var lastErr error
	erases := 0
	for i := 0; i < 12; i++ {
		c.EraseBlock(a, func(err error) { lastErr = err; erases++ })
		eng.Run()
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrBadBlock) {
		t.Fatalf("block should wear out after endurance: err=%v after %d erases", lastErr, erases)
	}
	if erases != 11 {
		t.Fatalf("wore out after %d erases, want 11 (10 endurance + 1)", erases)
	}
}

func TestBitErrorInjection(t *testing.T) {
	eng := sim.NewEngine()
	geo := testGeometry()
	rel := Reliability{BitErrorRate: 1e-3} // aggressive: ~4.6 flips/page
	c, err := NewCard(eng, "err", geo, DefaultTiming(), rel, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{0, 0, 0, 0}
	raw := mkPage(c, 0x55)
	want := bytes.Clone(raw) // the card keeps raw itself
	c.ProgramPage(a, raw, func(error) {})
	eng.Run()
	flipsSeen, oobSeen := 0, 0
	bits := c.Geometry().StoredPageSize() * 8
	for i := 0; i < 20; i++ {
		got, flips := readPage(t, eng, c, a)
		if !bytes.Equal(got, want) {
			t.Fatal("read returned different data than programmed")
		}
		for _, p := range flips {
			if p < 0 || p >= bits {
				t.Fatalf("flip position %d outside the %d-bit stored image", p, bits)
			}
			if p >= 8*c.Geometry().PageSize {
				oobSeen++
			}
		}
		flipsSeen += len(flips)
	}
	if flipsSeen == 0 || oobSeen == 0 {
		t.Fatalf("%d bit errors (%d in OOB) injected at rate 1e-3, want both > 0", flipsSeen, oobSeen)
	}
	if int64(flipsSeen) != c.InjectedFlips.Value() {
		t.Fatalf("reads saw %d flips, InjectedFlips counts %d", flipsSeen, c.InjectedFlips.Value())
	}
	// The stored data must remain pristine (errors are read-path only).
	if !bytes.Equal(c.Peek(a), want) {
		t.Fatal("stored data was corrupted")
	}
}

func TestAddrConversionRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	geo := c.Geometry()
	prop := func(idx uint32) bool {
		i := int(idx) % geo.TotalPages()
		return c.PageIndex(c.AddrOf(i)) == i
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBadAddressRejected(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	bad := []Addr{
		{Bus: -1}, {Bus: 99}, {Chip: 99}, {Block: 99}, {Page: 99},
	}
	for _, a := range bad {
		var gotErr error
		c.ReadPage(a, func(_ []byte, _ []int, err error) { gotErr = err })
		eng.Run()
		if !errors.Is(gotErr, ErrBadAddress) {
			t.Errorf("addr %v: err = %v, want ErrBadAddress", a, gotErr)
		}
	}
}

func TestWrongSizeProgramRejected(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	var gotErr error
	c.ProgramPage(Addr{0, 0, 0, 0}, make([]byte, 10), func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrWrongDataSize) {
		t.Fatalf("err = %v, want ErrWrongDataSize", gotErr)
	}
	// The stored image size (data + OOB) is not a page of data either.
	gotErr = nil
	c.ProgramPage(Addr{0, 0, 0, 0}, make([]byte, c.Geometry().StoredPageSize()), func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrWrongDataSize) {
		t.Fatalf("stored-size program: err = %v, want ErrWrongDataSize", gotErr)
	}
}

func TestGeometryMath(t *testing.T) {
	g := testGeometry()
	if g.TotalPages() != 2*2*8*16 {
		t.Fatalf("TotalPages = %d", g.TotalPages())
	}
	if g.TotalBytes() != int64(g.TotalPages())*512 {
		t.Fatalf("TotalBytes = %d", g.TotalBytes())
	}
	if g.StoredPageSize() != 576 {
		t.Fatalf("StoredPageSize = %d", g.StoredPageSize())
	}
	if err := (Geometry{}).Validate(); err == nil {
		t.Fatal("zero geometry validated")
	}
}

// Property: any sequence of in-order programs and erases keeps the card
// consistent with a trivial in-memory model.
func TestProgramEraseOracleProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		eng := sim.NewEngine()
		geo := Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 2, PagesPerBlock: 4, PageSize: 8, OOBSize: 0}
		c, err := NewCard(eng, "oracle", geo, DefaultTiming(), Reliability{}, 1)
		if err != nil {
			return false
		}
		type blockModel struct {
			next int
			data [4][]byte
		}
		var model [2]blockModel
		ok := true
		for i, op := range ops {
			blk := int(op>>1) % 2
			if op&1 == 0 { // program next page if room
				bm := &model[blk]
				if bm.next >= 4 {
					continue
				}
				page := bm.next
				raw := bytes.Repeat([]byte{byte(i)}, 8)
				c.ProgramPage(Addr{0, 0, blk, page}, raw, func(err error) {
					if err != nil {
						ok = false
					}
				})
				bm.data[page] = bytes.Clone(raw) // the card keeps raw itself
				bm.next++
			} else { // erase
				c.EraseBlock(Addr{0, 0, blk, 0}, func(err error) {
					if err != nil {
						ok = false
					}
				})
				model[blk] = blockModel{}
			}
			eng.Run()
		}
		// Verify contents.
		for blk := range model {
			for p := 0; p < 4; p++ {
				a := Addr{0, 0, blk, p}
				want := model[blk].data[p]
				if want == nil {
					if c.State(a) != PageFree {
						return false
					}
					continue
				}
				if !bytes.Equal(c.Peek(a), want) {
					return false
				}
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
