package search

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/altstore"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/rfs"
	"repro/internal/sim"
)

func TestCompileFailureFunction(t *testing.T) {
	p, err := Compile([]byte("ababaca"))
	if err != nil {
		t.Fatal(err)
	}
	// Known MP failure function for "ababaca" (border lengths).
	want := []int{-1, 0, 0, 1, 2, 3, 0, 1}
	for i, w := range want {
		if p.fail[i] != w {
			t.Fatalf("fail[%d] = %d, want %d (full: %v)", i, p.fail[i], w, p.fail)
		}
	}
	if _, err := Compile(nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestFindAllBasic(t *testing.T) {
	p, _ := Compile([]byte("abc"))
	got := p.FindAll([]byte("abcxabcabc"))
	want := []int64{0, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("matches %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matches %v, want %v", got, want)
		}
	}
}

func TestOverlappingMatches(t *testing.T) {
	p, _ := Compile([]byte("aaa"))
	got := p.FindAll([]byte("aaaaa"))
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("overlapping matches %v, want [0 1 2]", got)
	}
}

func TestStreamingAcrossChunks(t *testing.T) {
	p, _ := Compile([]byte("needle"))
	hay := []byte("xxxneedlexxxneeneedlexx")
	want := p.FindAll(hay)
	// Feed in every possible split.
	for cut := 1; cut < len(hay); cut++ {
		sc := p.NewScanner()
		var got []int64
		sc.Feed(hay[:cut], func(pos int64) { got = append(got, pos) })
		sc.Feed(hay[cut:], func(pos int64) { got = append(got, pos) })
		if len(got) != len(want) {
			t.Fatalf("cut %d: %v, want %v", cut, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: %v, want %v", cut, got, want)
			}
		}
	}
}

// Property: streaming in random chunkings equals the bytes.Index oracle.
func TestScannerOracleProperty(t *testing.T) {
	prop := func(hay []byte, needleSeed uint8, splitSeed uint64) bool {
		// Small alphabet so matches actually happen.
		for i := range hay {
			hay[i] = 'a' + hay[i]%3
		}
		needle := []byte(strings.Repeat(string('a'+needleSeed%3), int(needleSeed%3)+1))
		p, err := Compile(needle)
		if err != nil {
			return false
		}
		// Oracle: scan with bytes.Index.
		var want []int64
		for i := 0; i+len(needle) <= len(hay); i++ {
			if bytes.Equal(hay[i:i+len(needle)], needle) {
				want = append(want, int64(i))
			}
		}
		// Random chunking.
		rng := sim.NewRNG(splitSeed)
		sc := p.NewScanner()
		var got []int64
		rest := hay
		for len(rest) > 0 {
			n := rng.Intn(len(rest)) + 1
			sc.Feed(rest[:n], func(pos int64) { got = append(got, pos) })
			rest = rest[n:]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// haystackGen builds deterministic text pages with needles planted at
// known positions.
func haystackGen(needle string, everyPages int, pageSize int) func(idx int, page []byte) {
	return func(idx int, page []byte) {
		for i := range page {
			page[i] = "abcdefgh"[(idx*31+i)%8]
		}
		if everyPages > 0 && idx%everyPages == 0 {
			// Plant one needle in the middle of the page (and one
			// spanning into the next page every 2*everyPages).
			copy(page[len(page)/2:], needle)
			if idx%(2*everyPages) == 0 && len(needle) > 1 {
				copy(page[len(page)-len(needle)/2:], needle[:len(needle)/2])
			}
		}
	}
}

func searchCluster(t *testing.T) (*core.Cluster, *rfs.FS) {
	t.Helper()
	p := core.DefaultParams(1)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := rfs.New(c.Node(0).NewIface(0, "fs"), c.Params.Geometry, rfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c, fs
}

func TestSearchISPFindsPlantedNeedles(t *testing.T) {
	c, fs := searchCluster(t)
	needle := "BLUEDBM"
	const pages = 64
	gen := haystackGen(needle, 4, c.Params.PageSize())

	f, err := fs.Create("haystack")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, c.Params.PageSize())
	for i := 0; i < pages; i++ {
		for j := range buf {
			buf[j] = 0
		}
		gen(i, buf)
		var werr error
		f.AppendPage(buf, func(err error) { werr = err })
		c.Run()
		if werr != nil {
			t.Fatalf("page %d: %v", i, werr)
		}
	}

	res, err := SearchISP(c, 0, 0, f, []byte(needle))
	if err != nil {
		t.Fatal(err)
	}

	// Reference: scan the generated haystack in memory.
	hay := make([]byte, pages*c.Params.PageSize())
	for i := 0; i < pages; i++ {
		gen(i, hay[i*c.Params.PageSize():(i+1)*c.Params.PageSize()])
	}
	pat, _ := Compile([]byte(needle))
	want := pat.FindAll(hay)

	if len(res.Matches) != len(want) {
		t.Fatalf("ISP found %d matches, reference %d", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Fatalf("match %d: %d vs reference %d", i, res.Matches[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("test is vacuous: no needles planted")
	}
}

func TestSearchISPThroughputNearFlashBandwidth(t *testing.T) {
	c, fs := searchCluster(t)
	// Large enough that the scan is steady-state, not ramp-dominated.
	const pages = 1024
	f, _ := fs.Create("big")
	buf := make([]byte, c.Params.PageSize())
	for i := 0; i < pages; i++ {
		var werr error
		f.AppendPage(buf, func(err error) { werr = err })
		c.Run()
		if werr != nil {
			t.Fatal(werr)
		}
	}
	res, err := SearchISP(c, 0, 0, f, []byte("zzz"))
	if err != nil {
		t.Fatal(err)
	}
	// One card: 8 buses x 150 MB/s raw = 1.2 GB/s; minus ECC overhead
	// the logical ceiling is ~1.07 GB/s. Paper reports 1.1 GB/s (92%).
	gb := res.Throughput / 1e9
	if gb < 0.85 || gb > 1.1 {
		t.Fatalf("ISP search throughput %.2f GB/s, want ~0.9-1.07", gb)
	}
	if res.CPUUtil > 0.01 {
		t.Fatalf("ISP search used %.1f%% host CPU, want ~0", res.CPUUtil*100)
	}
}

func TestSearchSoftwareMatchesReference(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
	ssd, _ := altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
	needle := "BLUEDBM"
	const pages, pageSize = 48, 8192
	gen := haystackGen(needle, 4, pageSize)

	res, err := SearchSoftware(eng, cpu, ssd, pages, pageSize, gen, []byte(needle), 8)
	if err != nil {
		t.Fatal(err)
	}
	hay := make([]byte, pages*pageSize)
	for i := 0; i < pages; i++ {
		gen(i, hay[i*pageSize:(i+1)*pageSize])
	}
	pat, _ := Compile([]byte(needle))
	want := pat.FindAll(hay)
	if len(res.Matches) != len(want) {
		t.Fatalf("software found %d matches, reference %d", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Fatalf("match %d differs", i)
		}
	}
}

func TestSearchSoftwareSSDBoundAndCPUHungry(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
	ssd, _ := altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
	res, err := SearchSoftware(eng, cpu, ssd, 512, 8192, nil, []byte("xyz"), 16)
	if err != nil {
		t.Fatal(err)
	}
	mb := res.Throughput / 1e6
	if mb < 350 || mb > 620 {
		t.Fatalf("software-on-SSD %.0f MB/s, want IO-bound near 500-600", mb)
	}
	if res.CPUUtil < 0.4 || res.CPUUtil > 0.8 {
		t.Fatalf("software-on-SSD CPU %.0f%%, want ~65%%", res.CPUUtil*100)
	}
}

func TestSearchSoftwareHDDSlow(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
	hdd, _ := altstore.NewHDD(eng, "disk", altstore.DefaultHDD())
	res, err := SearchSoftware(eng, cpu, hdd, 512, 8192, nil, []byte("xyz"), 16)
	if err != nil {
		t.Fatal(err)
	}
	mb := res.Throughput / 1e6
	if mb > 150 {
		t.Fatalf("software-on-HDD %.0f MB/s, want disk-bound (<=147)", mb)
	}
	if res.CPUUtil > 0.25 {
		t.Fatalf("software-on-HDD CPU %.0f%%, want low (~13%%)", res.CPUUtil*100)
	}
}

// TestEdgeBytesAndJunctions: the distributed-scan residue helpers
// find exactly the boundary-straddling matches, and nothing else.
func TestEdgeBytesAndJunctions(t *testing.T) {
	pat, err := Compile([]byte("abcde"))
	if err != nil {
		t.Fatal(err)
	}
	if pat.EdgeLen() != 4 {
		t.Fatalf("edge len %d, want 4", pat.EdgeLen())
	}
	left := []byte("xxxxxxabc")  // needle starts 3 bytes before the boundary
	right := []byte("dexxxxxxx") // and ends 2 bytes after it
	_, tail := pat.EdgeBytes(left)
	head, _ := pat.EdgeBytes(right)
	const boundary = int64(9)
	got := pat.AppendJunctionMatches(nil, tail, head, boundary)
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("junction matches = %v, want [6]", got)
	}
	// A match fully inside the left page must NOT be reported by the
	// junction pass (the page's engine already found it).
	leftFull := []byte("xabcdexxx")
	_, tail2 := pat.EdgeBytes(leftFull)
	if got := pat.AppendJunctionMatches(nil, tail2, head, boundary); len(got) != 0 {
		t.Fatalf("junction reported in-page match: %v", got)
	}
	// A match starting exactly at the boundary belongs to the right
	// page's engine.
	rightFull := []byte("abcdexxxx")
	head3, _ := pat.EdgeBytes(rightFull)
	empty := []byte("xxxxxxxxx")
	_, tail3 := pat.EdgeBytes(empty)
	if got := pat.AppendJunctionMatches(nil, tail3, head3, boundary); len(got) != 0 {
		t.Fatalf("junction reported right-page match: %v", got)
	}
}

// TestJunctionSingleByteNeedle: a 1-byte needle cannot straddle.
func TestJunctionSingleByteNeedle(t *testing.T) {
	pat, err := Compile([]byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	if pat.EdgeLen() != 0 {
		t.Fatalf("edge len %d, want 0", pat.EdgeLen())
	}
	h, tl := pat.EdgeBytes([]byte("qqq"))
	if h != nil || tl != nil {
		t.Fatal("1-byte needle produced residues")
	}
	if got := pat.AppendJunctionMatches(nil, []byte("q"), []byte("q"), 10); got != nil {
		t.Fatalf("1-byte junction matches = %v", got)
	}
}
