package ispvol_test

// Cross-checks over the whole query space: every kernel × source ×
// placement against its in-memory reference, and every bad input
// failing identically on both placements.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/accel/lsh"
	"repro/internal/accel/search"
	"repro/internal/accel/tablescan"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/workload"
)

// matrixNeedle is the search needle of the cross-check matrix.
var matrixNeedle = []byte("cross-check!")

// matrixItemBytes is the nearest-neighbor item size (a page prefix).
const matrixItemBytes = 512

// region is one kernel's data set: n pages generated by gen.
type region struct {
	n   int
	gen workload.PageFiller
}

// matrixRegions generates the three data sets: a haystack with planted
// and junction-straddling needles, a table, and LSH items.
func matrixRegions(ps int) (hay, table, items region, query []byte) {
	set, query, err := workload.NearDuplicateSet(24, matrixItemBytes, 7, 40, 41)
	if err != nil {
		panic(err)
	}
	base := workload.RandomPages(5)
	hay = region{24, plantedFiller(matrixNeedle, ps)}
	table = region{16, recordFiller(ps)}
	items = region{24, func(idx int, page []byte) {
		base(idx, page)
		copy(page, set[idx])
	}}
	return hay, table, items, query
}

// matrixList is the list source: region pages out of order, with the
// straddling pairs (1,2) and (5,6) kept adjacent so list junctions
// carry real matches, and unrelated pages adjacent elsewhere.
var matrixList = []int{5, 6, 13, 1, 2, 9, 0, 14, 15, 3}

// store is one backing store of the matrix with a source constructor
// for each data set: the whole set (a range or a file) or a listed
// subset of its pages (region-relative).
type store struct {
	name string
	sys  *ispvol.System
	all  func(r int) ispvol.Source
	list func(r int, pages []int) ispvol.Source
}

// volumeStore lays the three data sets out back to back in one
// volume.
func volumeStore(t *testing.T, ps int, regions []region) store {
	t.Helper()
	los := make([]int, len(regions)+1)
	for i, r := range regions {
		los[i+1] = los[i] + r.n
	}
	base := workload.RandomPages(9)
	fill := func(idx int, page []byte) {
		for i, r := range regions {
			if idx >= los[i] && idx < los[i+1] {
				r.gen(idx-los[i], page)
				return
			}
		}
		base(idx, page)
	}
	_, _, _, sys := testSystem(t, 2, ispvol.DefaultConfig(), fill)
	return store{
		name: "volume",
		sys:  sys,
		all:  func(r int) ispvol.Source { return ispvol.VolumeRange(los[r], los[r+1]) },
		list: func(r int, pages []int) ispvol.Source {
			lpns := make([]int, len(pages))
			for i, p := range pages {
				lpns[i] = los[r] + p
			}
			return ispvol.VolumePages(lpns)
		},
	}
}

// fileStore puts each data set in its own file of a cluster RFS.
func fileStore(t *testing.T, regions []region) store {
	t.Helper()
	c, fs, sys := newFileSystem(t, 2)
	files := make([]*rfs.File, len(regions))
	for i, r := range regions {
		files[i] = seedFile(t, c, fs, fmt.Sprintf("set%d", i), r.n, r.gen)
	}
	return store{
		name: "file",
		sys:  sys,
		all:  func(r int) ispvol.Source { return ispvol.File(files[r]) },
		list: func(r int, pages []int) ispvol.Source { return ispvol.FilePages(files[r], pages) },
	}
}

// TestQueryMatrix: every kernel over every source kind on both
// placements returns exactly its reference answer — search.FindAll on
// the source's contiguous bytes, tablescan.FilterPage over all its
// pages, lsh.NearestBrute over its items.
func TestQueryMatrix(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	hay, table, items, query := matrixRegions(ps)
	regions := []region{hay, table, items}
	stores := []store{volumeStore(t, ps, regions), fileStore(t, regions)}
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	type shape struct {
		name  string
		pages func(r region) []int // region pages in query order
		src   func(st store, r int, pages []int) ispvol.Source
	}
	shapes := []shape{
		{"all", func(r region) []int { return seq(r.n) },
			func(st store, r int, _ []int) ispvol.Source { return st.all(r) }},
		{"list", func(region) []int { return matrixList },
			func(st store, r int, pages []int) ispvol.Source { return st.list(r, pages) }},
	}
	page := func(r region, p int) []byte {
		b := make([]byte, ps)
		r.gen(p, b)
		return b
	}
	placements := []struct {
		name string
		pl   ispvol.Placement
	}{{"device", ispvol.Device}, {"host", ispvol.Host}}

	for _, st := range stores {
		for _, sh := range shapes {
			for _, pl := range placements {
				cell := fmt.Sprintf("%s/%s/%s", st.name, sh.name, pl.name)

				t.Run("search/"+cell, func(t *testing.T) {
					pages := sh.pages(hay)
					var buf []byte
					for _, p := range pages {
						buf = append(buf, page(hay, p)...)
					}
					pat, err := search.Compile(matrixNeedle)
					if err != nil {
						t.Fatal(err)
					}
					want := pat.FindAll(buf)
					res, err := searchSync(st.sys, 1, sh.src(st, 0, pages), pl.pl, matrixNeedle)
					if err != nil {
						t.Fatal(err)
					}
					if res.FailedPages != 0 || res.Pages != len(pages) {
						t.Fatalf("pages %d failed %d, want %d and 0", res.Pages, res.FailedPages, len(pages))
					}
					if len(want) == 0 || fmt.Sprint(res.Matches) != fmt.Sprint(want) {
						t.Fatalf("matches %v, reference %v", res.Matches, want)
					}
				})

				t.Run("scan/"+cell, func(t *testing.T) {
					pred := tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 300}
					pages := sh.pages(table)
					var wantRows int64
					var wantIDs []uint64
					for _, p := range pages {
						m, rows, err := tablescan.FilterPage(page(table, p), pred)
						if err != nil {
							t.Fatal(err)
						}
						wantRows += rows
						for _, r := range m {
							wantIDs = append(wantIDs, r.ID)
						}
					}
					res, err := scanSync(st.sys, 1, sh.src(st, 1, pages), pl.pl, pred)
					if err != nil {
						t.Fatal(err)
					}
					gotIDs := make([]uint64, len(res.Matches))
					for i, r := range res.Matches {
						gotIDs[i] = r.ID
					}
					slices.Sort(wantIDs) // the answer is sorted by ID
					if res.FailedPages != 0 || res.Rows != wantRows {
						t.Fatalf("rows %d failed %d, want %d and 0", res.Rows, res.FailedPages, wantRows)
					}
					if len(wantIDs) == 0 || fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
						t.Fatalf("record IDs %v, reference %v", gotIDs, wantIDs)
					}
				})

				t.Run("nn/"+cell, func(t *testing.T) {
					pages := sh.pages(items)
					ids := make([]int, len(pages))
					cand := make(map[int][]byte, len(pages))
					for i, p := range pages {
						ids[i] = 100 + p
						cand[ids[i]] = page(items, p)[:matrixItemBytes]
					}
					wantID, wantDist := lsh.NearestBrute(query, cand)
					res, err := nnSync(st.sys, 1, sh.src(st, 2, pages), pl.pl, query, ids)
					if err != nil {
						t.Fatal(err)
					}
					if res.FailedPages != 0 || res.Comparisons != int64(len(pages)) {
						t.Fatalf("compared %d (failed %d) of %d", res.Comparisons, res.FailedPages, len(pages))
					}
					if res.BestID != wantID || res.BestDist != wantDist {
						t.Fatalf("best (%d, %d), brute force (%d, %d)", res.BestID, res.BestDist, wantID, wantDist)
					}
				})
			}
		}
	}
}

// TestBadInputFailsAlike: every malformed query fails with the same
// error on both placements, before any I/O — the cross-check between
// the arms must never see one of them error and the other succeed.
func TestBadInputFailsAlike(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	_, _, v, vsys := testSystem(t, 2, ispvol.DefaultConfig(), workload.RandomPages(1))
	c, fs, fsys := newFileSystem(t, 2)
	f := seedFile(t, c, fs, "f", 8, workload.RandomPages(2))
	item := make([]byte, 64)
	long := make([]byte, ps+1)

	rows := []struct {
		name string
		want error // sentinel the error must wrap; nil: any error
		run  func(pl ispvol.Placement) error
	}{
		{"origin out of range", ispvol.ErrOutOfRange, func(pl ispvol.Placement) error {
			_, err := searchSync(vsys, 2, ispvol.VolumeRange(0, 4), pl, []byte("x"))
			return err
		}},
		{"range outside the volume", ispvol.ErrOutOfRange, func(pl ispvol.Placement) error {
			_, err := scanSync(vsys, 0, ispvol.VolumeRange(v.Pages()-2, v.Pages()+1), pl, tablescan.Predicate{})
			return err
		}},
		{"lo > hi", ispvol.ErrOutOfRange, func(pl ispvol.Placement) error {
			_, err := searchSync(vsys, 0, ispvol.VolumeRange(5, 3), pl, []byte("x"))
			return err
		}},
		{"volume page outside the volume", ispvol.ErrOutOfRange, func(pl ispvol.Placement) error {
			_, err := nnSync(vsys, 0, ispvol.VolumePages([]int{0, -1}), pl, item, []int{1, 2})
			return err
		}},
		{"empty needle", search.ErrEmptyPattern, func(pl ispvol.Placement) error {
			_, err := searchSync(vsys, 0, ispvol.VolumeRange(0, 4), pl, nil)
			return err
		}},
		{"needle longer than a page", ispvol.ErrPatternTooLong, func(pl ispvol.Placement) error {
			_, err := searchSync(fsys, 0, ispvol.File(f), pl, long)
			return err
		}},
		{"empty item", nil, func(pl ispvol.Placement) error {
			_, err := nnSync(vsys, 0, ispvol.VolumePages([]int{3}), pl, nil, []int{1})
			return err
		}},
		{"item longer than a page", ispvol.ErrPatternTooLong, func(pl ispvol.Placement) error {
			_, err := nnSync(vsys, 0, ispvol.VolumePages([]int{3}), pl, long, []int{1})
			return err
		}},
		{"ids/pages length mismatch", nil, func(pl ispvol.Placement) error {
			_, err := nnSync(vsys, 0, ispvol.VolumePages([]int{3, 4}), pl, item, []int{1})
			return err
		}},
		{"candidate page outside the file", ispvol.ErrOutOfRange, func(pl ispvol.Placement) error {
			_, err := nnSync(fsys, 0, ispvol.FilePages(f, []int{0, f.Pages()}), pl, item, []int{1, 2})
			return err
		}},
		{"volume source with no volume", ispvol.ErrNoVolume, func(pl ispvol.Placement) error {
			_, err := scanSync(fsys, 0, ispvol.VolumeRange(0, 8), pl, tablescan.Predicate{})
			return err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dev, host := row.run(ispvol.Device), row.run(ispvol.Host)
			if dev == nil || host == nil {
				t.Fatalf("device err %v, host err %v: bad input accepted", dev, host)
			}
			if dev.Error() != host.Error() {
				t.Fatalf("placements disagree: device %q, host %q", dev, host)
			}
			if row.want != nil && !errors.Is(dev, row.want) {
				t.Fatalf("error %q does not wrap %q", dev, row.want)
			}
		})
	}
}

// TestNeedleLongerThanPageRejected: a needle of PageSize+2 bytes that
// starts on the last byte of page 4 and ends on byte 0 of page 6 spans
// three pages, which the junction stitch (adjacent page pairs only)
// cannot see; both placements would agree on an empty match list,
// which their cross-check cannot catch. They must reject the needle,
// while a needle of exactly one page still stitches across a junction.
func TestNeedleLongerThanPageRejected(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	long := bytes.Repeat([]byte{'L'}, ps+2)
	long[0], long[ps+1] = '<', '>'
	exact := bytes.Repeat([]byte{'E'}, ps)
	exact[0], exact[ps-1] = '[', ']'
	base := workload.RandomPages(11)
	fill := func(idx int, page []byte) {
		base(idx, page)
		switch idx {
		case 4:
			page[ps-1] = long[0]
		case 5:
			copy(page, long[1:ps+1])
		case 6:
			page[0] = long[ps+1]
		case 9:
			copy(page[ps-3:], exact[:3])
		case 10:
			copy(page, exact[3:])
		}
	}
	_, _, _, sys := testSystem(t, 2, ispvol.DefaultConfig(), fill)
	const hi = 12
	for _, needle := range [][]byte{long, exact} {
		want := referenceMatches(t, fill, 0, hi, ps, needle)
		if len(want) != 1 {
			t.Fatalf("%d-byte needle: reference finds %v, want one planted match", len(needle), want)
		}
		for _, pl := range []ispvol.Placement{ispvol.Device, ispvol.Host} {
			res, err := searchSync(sys, 0, ispvol.VolumeRange(0, hi), pl, needle)
			if len(needle) > ps {
				if !errors.Is(err, ispvol.ErrPatternTooLong) {
					t.Fatalf("placement %d: %d-byte needle (reference match at %d) returned %v, %v; want ErrPatternTooLong",
						pl, len(needle), want[0], res, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.Matches) != fmt.Sprint(want) {
				t.Fatalf("placement %d: page-long needle matches %v, reference %v", pl, res.Matches, want)
			}
		}
	}
}
