package repro_test

// The read-only page contract, end to end: a flash card stores each
// page's data once, and every clean or corrected read hands that same
// slice to the layers above, so a consumer that wrote into a page it
// read would silently change flash contents. These tests run mixed
// workloads at a raised bit-error rate, so the corrector runs often,
// and then check every programmed page on every card against what the
// layers above acknowledged writing.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/nand"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
	"repro/internal/workload"
)

// contractBER makes roughly one read in seven need a correction while
// two flips in one 72-bit word (uncorrectable) stay rare.
const contractBER = 2e-6

// acked records every page image some layer acknowledged writing.
type acked map[[sha256.Size]byte]bool

func (a acked) add(page []byte) { a[sha256.Sum256(page)] = true }

// auditCards checks every programmed page of every card: its stored
// data is a page some write delivered, byte for byte. A consumer that
// modified a page it read in place leaves an image no write produced.
// It returns how many pages it checked.
func auditCards(t *testing.T, c *core.Cluster, written acked) int {
	t.Helper()
	checked := 0
	for n := 0; n < c.Nodes(); n++ {
		for ci := 0; ci < c.Params.CardsPerNode; ci++ {
			card := c.Node(n).Card(ci)
			for idx := 0; idx < card.Geometry().TotalPages(); idx++ {
				a := card.AddrOf(idx)
				if card.State(a) != nand.PageWritten {
					continue
				}
				page := card.Peek(a)
				if len(page) != c.Params.PageSize() || !written[sha256.Sum256(page)] {
					t.Fatalf("node %d card %d %v: stored data matches no acknowledged write", n, ci, a)
				}
				checked++
			}
		}
	}
	return checked
}

// peekEqual checks that the live copy of a logical page holds want.
func peekEqual(t *testing.T, c *core.Cluster, what string, a core.PageAddr, want []byte) {
	t.Helper()
	if got := c.Node(a.Node).Card(a.Card).Peek(a.Addr); !bytes.Equal(got, want) {
		t.Fatalf("%s at %+v: stored data differs from the last acknowledged write", what, a)
	}
}

// correctedBits sums the controllers' ECC corrections over the cluster.
func correctedBits(c *core.Cluster) int64 {
	var n int64
	for i := 0; i < c.Nodes(); i++ {
		for ci := 0; ci < c.Params.CardsPerNode; ci++ {
			n += c.Node(i).Controller(ci).CorrectedBits.Value()
		}
	}
	return n
}

// TestReadOnlyPagesVolumeStack drives a mirrored volume through GC
// with cache fills, cache hits and on-device-DRAM reads of a static
// region, reads and overwrites of a churn region, and then checks
// every stored page against the acknowledged writes.
func TestReadOnlyPagesVolumeStack(t *testing.T) {
	p := core.DefaultParams(4)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 8
	p.Reliability.BitErrorRate = contractBER
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vcfg := volume.DefaultConfig()
	vcfg.Mirror = true
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, pages := v.PageSize(), v.Pages()
	static := pages / 4 // [0, static) is read only; the rest churns

	written := acked{}
	ref := make([][]byte, pages)
	seed := workload.RandomPages(31)
	if err := workload.SeedVolumeWith(v, c, pages, 32, func(idx int, page []byte) {
		seed(idx, page)
		ref[idx] = bytes.Clone(page)
		written.add(page)
	}); err != nil {
		t.Fatal(err)
	}

	ca, err := cache.New(c, v, cache.DefaultConfig(static/8))
	if err != nil {
		t.Fatal(err)
	}
	st, err := v.NewStream("churn", sched.Batch)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	var fail error
	check := func(what string, lpn int, want []byte) func([]byte, error) {
		return func(data []byte, err error) {
			if err == nil && !bytes.Equal(data, want) {
				err = fmt.Errorf("wrong data")
			}
			if err != nil && fail == nil {
				fail = fmt.Errorf("%s of page %d: %w", what, lpn, err)
			}
		}
	}

	// Readers: cache streams on every node over a hot set of the static
	// region; this pass fills the cache, a second one after the churn
	// hits it.
	var readers []*cache.Stream
	for n := 0; n < c.Nodes(); n++ {
		cst, err := ca.NewStream(fmt.Sprintf("read%d", n), n, sched.Interactive)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, cst)
	}
	cacheReads := func() {
		for _, cst := range readers {
			for i := 0; i < 200; i++ {
				lpn := rng.Intn(static / 16)
				cst.Read(lpn, check("cache read", lpn, ref[lpn]))
			}
		}
	}
	cacheReads()
	// On-device-DRAM reads of static pages held by another node.
	for i := 0; i < 64; i++ {
		lpn := rng.Intn(static)
		a, err := v.Phys(lpn)
		if err != nil {
			t.Fatal(err)
		}
		from := (a.Node + 1) % c.Nodes()
		c.Node(from).HostRead(a, core.PathHD, nil, check("DRAM read", lpn, ref[lpn]))
	}
	// Churn: overwrite random pages, one write per page in flight, with
	// volume reads of pages that are not being written.
	busy := make([]bool, pages)
	writes := 0
	var churn func()
	churn = func() {
		if writes >= 3*(pages-static) || fail != nil {
			return
		}
		lpn := static + rng.Intn(pages-static)
		if busy[lpn] {
			st.Read(lpn, func([]byte, error) { churn() }) // a read in place of a write
			return
		}
		if writes%3 == 0 {
			st.Read(lpn, check("volume read", lpn, ref[lpn]))
		}
		writes++
		busy[lpn] = true
		data := make([]byte, ps)
		rng.Bytes(data)
		st.Write(lpn, data, func(err error) {
			busy[lpn] = false
			if err != nil {
				if fail == nil {
					fail = fmt.Errorf("write of page %d: %w", lpn, err)
				}
				return
			}
			ref[lpn] = data
			written.add(data)
			churn()
		})
	}
	for i := 0; i < 16; i++ {
		churn()
	}
	c.Run()
	cacheReads()
	c.Run()
	if fail != nil {
		t.Fatal(fail)
	}

	vs, cs := v.Stats(), ca.Stats()
	if vs.GCMoves == 0 || cs.Misses == 0 || cs.Hits == 0 || correctedBits(c) == 0 {
		t.Fatalf("workload too light: %d GC moves, %d cache fills, %d hits, %d corrected bits",
			vs.GCMoves, cs.Misses, cs.Hits, correctedBits(c))
	}
	for lpn := 0; lpn < pages; lpn++ {
		a, err := v.Phys(lpn)
		if err != nil {
			t.Fatal(err)
		}
		peekEqual(t, c, fmt.Sprintf("volume page %d", lpn), a, ref[lpn])
	}
	if n := auditCards(t, c, written); n < 2*pages {
		t.Fatalf("audited %d stored pages, want at least both copies of %d", n, pages)
	}
}

// TestReadOnlyPagesFileStack drives the cluster RFS through segment
// cleaning with file reads and one in-store and one host-mediated
// search, and then checks every stored page against the acknowledged
// writes.
func TestReadOnlyPagesFileStack(t *testing.T) {
	p := core.DefaultParams(2)
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 2
	p.Geometry.PagesPerBlock = 16
	p.Reliability.BitErrorRate = contractBER
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	scfg := sched.DefaultConfig()
	scfg.MaxInflight = 16
	s, err := sched.New(c, scfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := rfs.NewClusterFS(c, s, rfs.ClusterConfig{}, rfs.Config{CleanLowWater: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ispvol.New(c, s, nil, ispvol.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := fs.PageSize()
	written := acked{}
	needle := []byte("read-only-needle")
	var fail error
	note := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}

	// A static haystack and a churned file, both appended in full.
	mk := func(name string, n int, gen func(idx int, page []byte)) (*rfs.File, [][]byte) {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([][]byte, n)
		for idx := 0; idx < n; idx++ {
			page := make([]byte, ps)
			gen(idx, page)
			ref[idx] = bytes.Clone(page)
			written.add(page)
			f.AppendPage(page, note)
		}
		c.Run()
		return f, ref
	}
	rng := sim.NewRNG(11)
	hay, hayRef := mk("haystack", 96, func(idx int, page []byte) {
		rng.Bytes(page)
		if idx%3 == 0 {
			copy(page[ps/2:], needle)
		}
	})
	churnF, churnRef := mk("churn", 256, func(_ int, page []byte) { rng.Bytes(page) })
	if fail != nil {
		t.Fatal(fail)
	}

	// Overwrite the churn file until the cleaner has moved pages, while
	// realtime readers read the haystack.
	busy := make([]bool, len(churnRef))
	writes := 0
	var churn func()
	churn = func() {
		if writes >= 6*len(churnRef) || fail != nil {
			return
		}
		idx := rng.Intn(len(churnRef))
		if busy[idx] {
			churn()
			return
		}
		writes++
		busy[idx] = true
		data := make([]byte, ps)
		rng.Bytes(data)
		churnF.WritePage(idx, data, func(err error) {
			busy[idx] = false
			note(err)
			if err == nil {
				churnRef[idx] = data
				written.add(data)
				churn()
			}
		})
	}
	for i := 0; i < 8; i++ {
		churn()
	}
	reader := hay.At(sched.Realtime)
	for i := 0; i < 300; i++ {
		idx := rng.Intn(len(hayRef))
		reader.ReadPage(idx, func(data []byte, err error) {
			if err == nil && !bytes.Equal(data, hayRef[idx]) {
				err = fmt.Errorf("haystack page %d: wrong data", idx)
			}
			note(err)
		})
	}
	c.Run()
	if fail != nil {
		t.Fatal(fail)
	}

	// One in-store and one host-mediated search of the haystack.
	want := len(hayRef) / 3
	for _, pl := range []ispvol.Placement{ispvol.Device, ispvol.Host} {
		res, err := ispvol.Sync(sys, func(done func(*ispvol.SearchResult, error)) {
			sys.Search(0, ispvol.File(hay), pl, needle, done)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedPages != 0 || len(res.Matches) != want {
			t.Fatalf("search placed %v: %d matches and %d failed pages, want %d and 0",
				pl, len(res.Matches), res.FailedPages, want)
		}
	}

	if fs.CleanMoves == 0 || correctedBits(c) == 0 {
		t.Fatalf("workload too light: %d cleaner moves, %d corrected bits", fs.CleanMoves, correctedBits(c))
	}
	for _, f := range []struct {
		file *rfs.File
		ref  [][]byte
	}{{hay, hayRef}, {churnF, churnRef}} {
		addrs, err := f.file.PhysicalAddrs()
		if err != nil {
			t.Fatal(err)
		}
		for idx, a := range addrs {
			peekEqual(t, c, fmt.Sprintf("%s page %d", f.file.Name(), idx), a, f.ref[idx])
		}
	}
	auditCards(t, c, written)
}
