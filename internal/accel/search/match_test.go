package search

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// checkPage compares AppendPageMatches against the Morris-Pratt oracle
// on one page, with a non-zero base and a non-empty dst.
func checkPage(t *testing.T, p *Pattern, page []byte) {
	t.Helper()
	const base = 1 << 40
	want := []int64{-1}
	for _, pos := range p.FindAll(page) {
		want = append(want, base+pos)
	}
	got := p.AppendPageMatches([]int64{-1}, page, base)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%v in %q: page matches %v, MP %v", p, page, got, want)
	}
}

// checkSplits cuts hay at every point, as if the two sides were
// adjacent pages, and checks that the in-page matches of both sides
// plus the junction stitch equal the MP matches of the whole.
func checkSplits(t *testing.T, p *Pattern, hay []byte) {
	t.Helper()
	want := fmt.Sprint(p.FindAll(hay))
	for cut := 0; cut <= len(hay); cut++ {
		left, right := hay[:cut], hay[cut:]
		_, tail := p.EdgeBytes(left)
		head, _ := p.EdgeBytes(right)
		junction := p.AppendJunctionMatches(nil, tail, head, int64(cut))
		// Whole pages in place of the residues stitch the same.
		if whole := p.AppendJunctionMatches(nil, left, right, int64(cut)); fmt.Sprint(whole) != fmt.Sprint(junction) {
			t.Fatalf("%v in %q cut at %d: whole-page junction %v, residue junction %v", p, hay, cut, whole, junction)
		}
		// Straddlers sort between the two pages' in-page matches.
		got := append(p.AppendPageMatches(nil, left, 0), junction...)
		got = p.AppendPageMatches(got, right, int64(cut))
		if fmt.Sprint(got) != want {
			t.Fatalf("%v in %q cut at %d: %v, MP %v", p, hay, cut, got, want)
		}
	}
}

// TestPageMatcherAgreesWithMP differentially tests the bytes.Index
// page matcher and the junction stitch against Pattern.FindAll.
func TestPageMatcherAgreesWithMP(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := sim.NewRNG(0x5ea4c4)
		for trial := 0; trial < 400; trial++ {
			alpha := 1 + rng.Intn(4)
			hay := make([]byte, rng.Intn(200))
			for i := range hay {
				hay[i] = 'a' + byte(rng.Intn(alpha))
			}
			needle := make([]byte, 1+rng.Intn(6))
			for i := range needle {
				needle[i] = 'a' + byte(rng.Intn(alpha))
			}
			p, _ := Compile(needle)
			checkPage(t, p, hay)
			if trial%4 == 0 {
				checkSplits(t, p, hay)
			}
		}
	})
	t.Run("overlapping", func(t *testing.T) {
		p, _ := Compile([]byte("aaa"))
		checkPage(t, p, []byte("aaaaa"))
		checkSplits(t, p, []byte("aaaaa"))
		if got := p.AppendPageMatches(nil, []byte("aaaaa"), 0); fmt.Sprint(got) != "[0 1 2]" {
			t.Fatalf("aaa in aaaaa: %v, want [0 1 2]", got)
		}
	})
	t.Run("one-byte needle", func(t *testing.T) {
		p, _ := Compile([]byte("x"))
		checkPage(t, p, []byte("xaxxbx"))
		checkSplits(t, p, []byte("xaxxbx"))
	})
	t.Run("needle as long as the page", func(t *testing.T) {
		page := []byte("BlueDBM-needle")
		p, _ := Compile(page)
		checkPage(t, p, page)
		checkPage(t, p, page[1:])
		checkSplits(t, p, append(append([]byte(nil), page...), page...))
	})
	t.Run("first and last byte", func(t *testing.T) {
		p, _ := Compile([]byte("ab"))
		page := []byte("abxxxxab")
		checkPage(t, p, page)
		if got := p.AppendPageMatches(nil, page, 100); fmt.Sprint(got) != "[100 106]" {
			t.Fatalf("edge matches %v, want [100 106]", got)
		}
	})
	t.Run("straddlers at every split", func(t *testing.T) {
		for _, needle := range []string{"abcab", "aab", "abab", "zzzz"} {
			p, _ := Compile([]byte(needle))
			checkSplits(t, p, []byte("xx"+needle+"y"+needle+needle+"x"))
		}
	})
	t.Run("long needle junction", func(t *testing.T) {
		// A needle past the junction's stack buffer still stitches.
		needle := bytes.Repeat([]byte("ab"), junctionStack)
		p, _ := Compile(needle)
		checkSplits(t, p, append([]byte("c"), append(needle, 'c')...))
	})
}

// TestAppendPageMatchesAllocFree pins the page matcher and the
// junction stitch at zero allocations when dst already has room for
// their matches.
func TestAppendPageMatchesAllocFree(t *testing.T) {
	p, page := benchPage()
	dst := make([]int64, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		dst = p.AppendPageMatches(dst[:0], page, 0)
	}); n != 0 {
		t.Fatalf("page matcher allocates %.1f objects per page, want 0", n)
	}
	if len(dst) != 2 {
		t.Fatalf("%d matches, want 2", len(dst))
	}
	_, tail := p.EdgeBytes([]byte("xxxxxxxxxxBlueDBM"))
	head, _ := p.EdgeBytes([]byte("-needlexxxxxxxxxx"))
	if n := testing.AllocsPerRun(200, func() {
		dst = p.AppendJunctionMatches(dst[:0], tail, head, 17)
	}); n != 0 {
		t.Fatalf("junction stitch allocates %.1f objects, want 0", n)
	}
	if len(dst) != 1 || dst[0] != 10 {
		t.Fatalf("junction matches %v, want [10]", dst)
	}
}

// benchPage is an 8 KB text page with two planted needles.
func benchPage() (*Pattern, []byte) {
	p, _ := Compile([]byte("BlueDBM-needle"))
	page := make([]byte, 8192)
	for i := range page {
		page[i] = 'a' + byte(i*7%26)
	}
	copy(page[100:], "BlueDBM-needle")
	copy(page[8000:], "BlueDBM-needle")
	return p, page
}

// BenchmarkAppendPageMatches8K times one page scan into a pre-sized
// dst, pinned at zero allocations.
func BenchmarkAppendPageMatches8K(b *testing.B) {
	p, page := benchPage()
	dst := make([]int64, 0, 64)
	scan := func() { dst = p.AppendPageMatches(dst[:0], page, 0) }
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		b.Fatalf("page matcher allocates %.1f objects per page, want 0", n)
	}
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}

// BenchmarkScannerFeed8K times the streaming MP engine on the same
// page, for comparison with the page matcher.
func BenchmarkScannerFeed8K(b *testing.B) {
	p, page := benchPage()
	sc := p.NewScanner()
	n := 0
	emit := func(int64) { n++ }
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Feed(page, emit)
	}
}
