package flashctl

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

func testGeometry() nand.Geometry {
	return nand.Geometry{
		Buses: 2, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 16,
		PageSize: 8192, OOBSize: 1024,
	}
}

// rig wires a controller to collectors for every handler event.
type rig struct {
	eng  *sim.Engine
	card *nand.Card
	ctl  *Controller

	chunks     map[int][]byte // reassembled read data per tag
	pages      map[int][]byte // page handed over by ReadDone per tag
	readDone   map[int]error
	corrected  map[int]int
	writeReqs  []int
	writeDone  map[int]error
	eraseDone  map[int]error
	chunkOrder []int // tag sequence of chunk arrivals, to observe interleaving
}

func newRig(t *testing.T, rel nand.Reliability) *rig {
	t.Helper()
	eng := sim.NewEngine()
	card, err := nand.NewCard(eng, "c0", testGeometry(), nand.DefaultTiming(), rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		eng: eng, card: card,
		chunks:    make(map[int][]byte),
		pages:     make(map[int][]byte),
		readDone:  make(map[int]error),
		corrected: make(map[int]int),
		writeDone: make(map[int]error),
		eraseDone: make(map[int]error),
	}
	h := Handlers{
		ReadChunk: func(tag, offset int, chunk []byte, last bool) {
			if offset != len(r.chunks[tag]) {
				t.Errorf("tag %d: chunk offset %d, want %d (in-order per tag)", tag, offset, len(r.chunks[tag]))
			}
			r.chunks[tag] = append(r.chunks[tag], chunk...)
			r.chunkOrder = append(r.chunkOrder, tag)
		},
		ReadDone: func(tag int, page []byte, corrected int, err error) {
			r.readDone[tag] = err
			r.pages[tag] = page
			r.corrected[tag] = corrected
		},
		WriteDataReq: func(tag int) { r.writeReqs = append(r.writeReqs, tag) },
		WriteDone:    func(tag int, err error) { r.writeDone[tag] = err },
		EraseDone:    func(tag int, err error) { r.eraseDone[tag] = err },
	}
	ctl, err := New(eng, card, DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	r.ctl = ctl
	return r
}

// writePage drives the full write protocol for one page synchronously.
func (r *rig) writePage(t *testing.T, tag int, addr nand.Addr, data []byte) {
	t.Helper()
	if err := r.ctl.Issue(Command{Op: OpWrite, Tag: tag, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run() // fire WriteDataReq
	found := false
	for _, q := range r.writeReqs {
		if q == tag {
			found = true
		}
	}
	if !found {
		t.Fatalf("no WriteDataReq for tag %d", tag)
	}
	if err := r.ctl.WriteData(tag, data); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err, ok := r.writeDone[tag]; !ok || err != nil {
		t.Fatalf("write tag %d: done=%v err=%v", tag, ok, err)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	data := pattern(8192, 1)
	r.writePage(t, 5, addr, data)

	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 9, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err := r.readDone[9]; err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(r.chunks[9], data) {
		t.Fatal("read data mismatch")
	}
	// ReadDone hands over the whole page, capped at the page so that
	// appending to it never writes past it.
	if page := r.pages[9]; !bytes.Equal(page, data) || cap(page) != len(data) {
		t.Fatalf("ReadDone page: %d bytes, cap %d, equal %v; want the %d-byte page, capped",
			len(page), cap(page), bytes.Equal(page, data), len(data))
	}
	if r.corrected[9] != 0 {
		t.Fatalf("corrected = %d on a clean card", r.corrected[9])
	}
}

func TestECCCorrectsInjectedErrors(t *testing.T) {
	// Aggressive error rate: several flips per page, all correctable
	// with very high probability at one flip per 64-bit word.
	r := newRig(t, nand.Reliability{BitErrorRate: 5e-5}) // ~3.7 flips/page
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	data := pattern(8192, 2)
	r.writePage(t, 0, addr, data)

	totalCorrected := 0
	for i := 0; i < 10; i++ {
		tag := i % 4
		if err := r.ctl.Issue(Command{Op: OpRead, Tag: tag, Addr: addr}); err != nil {
			t.Fatal(err)
		}
		r.eng.Run()
		if err := r.readDone[tag]; err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(r.chunks[tag], data) || !bytes.Equal(r.pages[tag], data) {
			t.Fatalf("read %d: ECC failed to restore data", i)
		}
		totalCorrected += r.corrected[tag]
		delete(r.chunks, tag)
	}
	if totalCorrected == 0 {
		t.Fatal("error injection produced no corrections; test is vacuous")
	}
	if got := r.ctl.CorrectedBits.Value(); got != int64(totalCorrected) {
		t.Fatalf("CorrectedBits = %d, want %d", got, totalCorrected)
	}
}

func TestBurstInterleavingAcrossTags(t *testing.T) {
	// Two reads on different buses complete their nand phases near-
	// simultaneously; their bursts must interleave on the shared link.
	r := newRig(t, nand.Reliability{})
	a0 := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	a1 := nand.Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}
	r.writePage(t, 0, a0, pattern(8192, 3))
	r.writePage(t, 0, a1, pattern(8192, 4))

	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 1, Addr: a0}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 2, Addr: a1}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.readDone[1] != nil || r.readDone[2] != nil {
		t.Fatalf("reads failed: %v %v", r.readDone[1], r.readDone[2])
	}
	// Both tags appear in the chunk stream, and the stream switches tags
	// at least once before either finishes (interleaving).
	switches := 0
	for i := 1; i < len(r.chunkOrder); i++ {
		if r.chunkOrder[i] != r.chunkOrder[i-1] {
			switches++
		}
	}
	if switches < 2 {
		t.Fatalf("bursts did not interleave: order %v", r.chunkOrder)
	}
}

func TestTagReuseAfterCompletion(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	r.writePage(t, 7, addr, pattern(8192, 5))
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 7, Addr: addr}); err != nil {
		t.Fatalf("tag should be free after write completes: %v", err)
	}
	r.eng.Run()
	if r.readDone[7] != nil {
		t.Fatal(r.readDone[7])
	}
}

func TestTagInUseRejected(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	r.writePage(t, 0, addr, pattern(8192, 6))
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 3, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	err := r.ctl.Issue(Command{Op: OpRead, Tag: 3, Addr: addr})
	if !errors.Is(err, ErrTagInUse) {
		t.Fatalf("err = %v, want ErrTagInUse", err)
	}
	r.eng.Run()
}

func TestBadTagRejected(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: -1}); !errors.Is(err, ErrBadTag) {
		t.Fatalf("tag -1: %v", err)
	}
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 128}); !errors.Is(err, ErrBadTag) {
		t.Fatalf("tag 128: %v", err)
	}
	if err := r.ctl.WriteData(5, make([]byte, 8192)); !errors.Is(err, ErrWrongState) {
		t.Fatalf("WriteData on idle tag: %v", err)
	}
}

func TestWriteDataSizeValidated(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	if err := r.ctl.Issue(Command{Op: OpWrite, Tag: 1, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err := r.ctl.WriteData(1, make([]byte, 100)); !errors.Is(err, ErrDataSize) {
		t.Fatalf("short write data: %v", err)
	}
	// Correct size still works afterwards.
	if err := r.ctl.WriteData(1, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.writeDone[1] != nil {
		t.Fatal(r.writeDone[1])
	}
}

func TestEraseCycle(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 2, Page: 0}
	r.writePage(t, 0, addr, pattern(8192, 7))
	if err := r.ctl.Issue(Command{Op: OpErase, Tag: 4, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err, ok := r.eraseDone[4]; !ok || err != nil {
		t.Fatalf("erase: done=%v err=%v", ok, err)
	}
	// Page reads as free now.
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 4, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !errors.Is(r.readDone[4], nand.ErrReadFree) {
		t.Fatalf("read after erase: %v, want ErrReadFree", r.readDone[4])
	}
}

func TestReadBadBlockReported(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	addr := nand.Addr{Bus: 1, Chip: 1, Block: 5, Page: 0}
	r.card.MarkBad(addr)
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: 0, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !errors.Is(r.readDone[0], nand.ErrBadBlock) {
		t.Fatalf("err = %v, want ErrBadBlock", r.readDone[0])
	}
	if r.ctl.FreeTags() != r.ctl.Config().Tags {
		t.Fatal("tag leaked after failed read")
	}
}

func TestManyInFlightReadsSaturateCard(t *testing.T) {
	// Keeping many tags in flight should approach the card's 300 MB/s
	// (2 test buses x 150 MB/s) logical read bandwidth.
	r := newRig(t, nand.Reliability{})
	geo := r.card.Geometry()
	pages := 0
	for bus := 0; bus < geo.Buses; bus++ {
		for chip := 0; chip < geo.ChipsPerBus; chip++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				r.writePage(t, 0, nand.Addr{Bus: bus, Chip: chip, Block: 0, Page: p}, pattern(8192, byte(p)))
				pages++
			}
		}
	}
	start := r.eng.Now()
	done := 0
	tag := 0
	for bus := 0; bus < geo.Buses; bus++ {
		for chip := 0; chip < geo.ChipsPerBus; chip++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				if err := r.ctl.Issue(Command{Op: OpRead, Tag: tag, Addr: nand.Addr{Bus: bus, Chip: chip, Block: 0, Page: p}}); err != nil {
					t.Fatal(err)
				}
				tag++
				done++
			}
		}
	}
	r.eng.Run()
	for i := 0; i < tag; i++ {
		if err, ok := r.readDone[i]; !ok || err != nil {
			t.Fatalf("read %d: done=%v err=%v", i, ok, err)
		}
	}
	elapsed := (r.eng.Now() - start).Seconds()
	bw := float64(pages*8192) / elapsed
	// Ceiling: per bus, the slower of the bus wire rate and the chips'
	// aggregate cell-read rate, counted in logical (post-ECC) bytes.
	tim := nand.DefaultTiming()
	stored := float64(geo.StoredPageSize())
	perBusStored := float64(geo.ChipsPerBus) * stored / tim.ReadPage.Seconds()
	if w := float64(tim.BusBytesPerSec); w < perBusStored {
		perBusStored = w
	}
	ceiling := float64(geo.Buses) * perBusStored * float64(geo.PageSize) / stored
	if bw < 0.6*ceiling {
		t.Fatalf("achieved %.0f B/s with %d tags in flight; want > 60%% of %.0f", bw, tag, ceiling)
	}
	if bw > ceiling {
		t.Fatalf("achieved %.0f B/s exceeds physical limit %.0f", bw, ceiling)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	card, _ := nand.NewCard(eng, "c", testGeometry(), nand.DefaultTiming(), nand.Reliability{}, 1)
	if _, err := New(eng, card, Config{}, Handlers{}); err == nil {
		t.Fatal("zero config accepted")
	}
	badGeo := testGeometry()
	badGeo.OOBSize = 10 // too small for ECC
	badCard, _ := nand.NewCard(eng, "c2", badGeo, nand.DefaultTiming(), nand.Reliability{}, 1)
	if _, err := New(eng, badCard, DefaultConfig(), Handlers{}); err == nil {
		t.Fatal("OOB mismatch accepted")
	}
}
