package ispvol_test

import (
	"testing"

	"repro/internal/accel/search"
	"repro/internal/accel/tablescan"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/volume"
	"repro/internal/workload"
)

// testSystem builds a small cluster + scheduler + volume + ispvol
// stack, seeded with fill over the whole logical space.
func testSystem(t *testing.T, nodes int, icfg ispvol.Config, fill workload.PageFiller) (*core.Cluster, *sched.Scheduler, *volume.Volume, *ispvol.System) {
	t.Helper()
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 8
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, err := volume.New(c, s, volume.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.SeedVolumeWith(v, c, v.Pages(), 32, fill); err != nil {
		t.Fatal(err)
	}
	sys, err := ispvol.New(c, s, v, icfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, s, v, sys
}

// searchSync, scanSync and nnSync run one query to completion.
func searchSync(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement, needle []byte) (*ispvol.SearchResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.SearchResult, error)) {
		sys.Search(origin, src, pl, needle, done)
	})
}

func scanSync(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement, pred tablescan.Predicate) (*ispvol.ScanResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.ScanResult, error)) {
		sys.TableScan(origin, src, pl, pred, done)
	})
}

func nnSync(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement, item []byte, ids []int) (*ispvol.NNResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.NNResult, error)) {
		sys.NearestNeighbor(origin, src, pl, item, ids, done)
	})
}

// plantedFiller seeds deterministic bytes with `needle` planted
// mid-page on every 3rd page and straddling every 4k+1|4k+2 page
// boundary, so junction stitching has real work.
func plantedFiller(needle []byte, ps int) workload.PageFiller {
	base := workload.RandomPages(77)
	split := len(needle) / 2
	return func(idx int, page []byte) {
		base(idx, page)
		if idx%3 == 0 {
			copy(page[ps/3:], needle)
		}
		if idx%4 == 1 {
			copy(page[ps-split:], needle[:split])
		}
		if idx%4 == 2 {
			copy(page, needle[split:])
		}
	}
}

// referenceMatches rebuilds the logical byte range from the filler
// and runs the reference matcher over the contiguous buffer.
func referenceMatches(t *testing.T, fill workload.PageFiller, lo, hi, ps int, needle []byte) []int64 {
	t.Helper()
	buf := make([]byte, 0, (hi-lo)*ps)
	page := make([]byte, ps)
	for idx := lo; idx < hi; idx++ {
		fill(idx, page)
		buf = append(buf, page...)
	}
	pat, err := search.Compile(needle)
	if err != nil {
		t.Fatal(err)
	}
	return pat.FindAll(buf)
}

// TestDistributedSearchExact: the fanned-out engines plus junction
// stitching find exactly the matches a flat scan of the contiguous
// logical range finds — including occurrences straddling page
// boundaries, whose two halves live on different nodes.
func TestDistributedSearchExact(t *testing.T) {
	needle := []byte("needle!")
	var ps = core.DefaultParams(1).Geometry.PageSize
	fill := plantedFiller(needle, ps)
	_, s, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), fill)
	lo, hi := 0, v.Pages()
	want := referenceMatches(t, fill, lo, hi, ps, needle)
	if len(want) == 0 {
		t.Fatal("test content has no matches; nothing validated")
	}
	res, err := searchSync(sys, 0, ispvol.VolumeRange(lo, hi), ispvol.Device, needle)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedPages != 0 {
		t.Fatalf("%d failed pages", res.FailedPages)
	}
	if len(res.Matches) != len(want) {
		t.Fatalf("found %d matches, want %d", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Fatalf("match %d at %d, want %d", i, res.Matches[i], want[i])
		}
	}
	// A straddler exists in the plant plan: prove the junction pass
	// contributed (some match must start < a boundary and end past it).
	straddlers := 0
	for _, m := range want {
		if m/int64(ps) != (m+int64(len(needle))-1)/int64(ps) {
			straddlers++
		}
	}
	if straddlers == 0 {
		t.Fatal("no boundary-straddling matches planted; junction path untested")
	}
	// The engines' flash reads went through the scheduler.
	accelOps := int64(0)
	for _, cs := range s.Snapshot().Classes {
		if cs.Class == "accel" {
			accelOps = cs.Ops
		}
	}
	if accelOps < int64(hi-lo) {
		t.Fatalf("accel class saw %d ops, want >= %d (ISP bypassing scheduler?)", accelOps, hi-lo)
	}
}

// TestHostMediatedSearchAgrees: the host-mediated arm returns
// byte-identical matches; only the data path differs.
func TestHostMediatedSearchAgrees(t *testing.T) {
	needle := []byte("agree?")
	ps := core.DefaultParams(1).Geometry.PageSize
	fill := plantedFiller(needle, ps)
	_, _, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), fill)
	lo, hi := 8, v.Pages()/2
	ispRes, err := searchSync(sys, 1, ispvol.VolumeRange(lo, hi), ispvol.Device, needle)
	if err != nil {
		t.Fatal(err)
	}
	hostRes, err := searchSync(sys, 1, ispvol.VolumeRange(lo, hi), ispvol.Host, needle)
	if err != nil {
		t.Fatal(err)
	}
	if len(ispRes.Matches) != len(hostRes.Matches) {
		t.Fatalf("isp %d matches, host-mediated %d", len(ispRes.Matches), len(hostRes.Matches))
	}
	for i := range ispRes.Matches {
		if ispRes.Matches[i] != hostRes.Matches[i] {
			t.Fatalf("match %d: isp %d vs host %d", i, ispRes.Matches[i], hostRes.Matches[i])
		}
	}
	if len(ispRes.Matches) == 0 {
		t.Fatal("no matches in range; nothing validated")
	}
}

// recordFiller packs deterministic rows, RecordsPerPage per page.
func recordFiller(ps int) workload.PageFiller {
	per := tablescan.RecordsPerPage(ps)
	return func(idx int, page []byte) {
		recs := make([]tablescan.Record, per)
		for i := range recs {
			id := uint64(idx*per + i)
			recs[i] = tablescan.Record{ID: id, ColA: int64(id * 37 % 1000), ColB: int64(id % 100)}
		}
		enc, err := tablescan.EncodeRecords(recs, ps)
		if err != nil {
			panic(err)
		}
		copy(page, enc)
	}
}

// TestDistributedTableScanExact: the pushed-down predicate returns
// exactly the records the host-mediated scan returns, and exactly the
// reference filter's rows.
func TestDistributedTableScanExact(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	fill := recordFiller(ps)
	_, _, v, sys := testSystem(t, 3, ispvol.DefaultConfig(), fill)
	pred := tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 120}
	lo, hi := 0, v.Pages()

	res, err := scanSync(sys, 2, ispvol.VolumeRange(lo, hi), ispvol.Device, pred)
	if err != nil {
		t.Fatal(err)
	}
	hostRes, err := scanSync(sys, 2, ispvol.VolumeRange(lo, hi), ispvol.Host, pred)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: filter the generated pages directly.
	var wantRows int64
	var wantIDs []uint64
	page := make([]byte, ps)
	for idx := lo; idx < hi; idx++ {
		fill(idx, page)
		m, rows, err := tablescan.FilterPage(page, pred)
		if err != nil {
			t.Fatal(err)
		}
		wantRows += rows
		for _, r := range m {
			wantIDs = append(wantIDs, r.ID)
		}
	}
	if len(wantIDs) == 0 {
		t.Fatal("predicate selects nothing; nothing validated")
	}
	for name, got := range map[string]*ispvol.ScanResult{"isp": res, "host-mediated": hostRes} {
		if got.Rows != wantRows {
			t.Fatalf("%s scanned %d rows, want %d", name, got.Rows, wantRows)
		}
		if len(got.Matches) != len(wantIDs) {
			t.Fatalf("%s returned %d records, want %d", name, len(got.Matches), len(wantIDs))
		}
		for i, r := range got.Matches {
			if r.ID != wantIDs[i] {
				t.Fatalf("%s record %d has ID %d, want %d", name, i, r.ID, wantIDs[i])
			}
		}
	}
	// Selection/projection pushdown: only matching records crossed to
	// the origin host, vs every page for the host-mediated arm.
	if res.BytesToHost >= hostRes.BytesToHost {
		t.Fatalf("pushdown moved %d bytes, host-mediated %d", res.BytesToHost, hostRes.BytesToHost)
	}
}

// TestUnitArbitration: more concurrent queries than acceleration
// units — the FIFO unit scheduler must queue the excess (Waits > 0)
// and every query must still complete.
func TestUnitArbitration(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	fill := recordFiller(ps)
	icfg := ispvol.DefaultConfig()
	icfg.UnitsPerNode = 1
	c, _, v, sys := testSystem(t, 2, icfg, fill)
	pred := tablescan.Predicate{Col: tablescan.ColB, Op: tablescan.OpEQ, Value: 7}
	const queries = 3
	completed := 0
	for i := 0; i < queries; i++ {
		sys.TableScan(i%2, ispvol.VolumeRange(0, v.Pages()), ispvol.Device, pred, func(res *ispvol.ScanResult, err error) {
			if err != nil {
				t.Errorf("query: %v", err)
			}
			completed++
		})
	}
	c.Run()
	if completed != queries {
		t.Fatalf("completed %d of %d queries", completed, queries)
	}
	waits := int64(0)
	for n := 0; n < 2; n++ {
		waits += sys.Units(n).Waits
		if busy := sys.Units(n).Busy(); busy != 0 {
			t.Fatalf("node %d still holds %d units", n, busy)
		}
	}
	if waits == 0 {
		t.Fatal("3 queries on 1 unit per node never queued")
	}
}

// TestBypassAdmissionInvisible: under Bypass admission the scheduler
// sees no accel traffic — the arm faithfully reproduces the bug.
func TestBypassAdmissionInvisible(t *testing.T) {
	needle := []byte("ghost")
	ps := core.DefaultParams(1).Geometry.PageSize
	fill := plantedFiller(needle, ps)
	icfg := ispvol.DefaultConfig()
	icfg.Admission = ispvol.Bypass
	_, s, v, sys := testSystem(t, 2, icfg, fill)
	res, err := searchSync(sys, 0, ispvol.VolumeRange(0, v.Pages()), ispvol.Device, needle)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("bypass search found nothing")
	}
	for _, cs := range s.Snapshot().Classes {
		if cs.Class == "accel" && cs.Ops != 0 {
			t.Fatalf("bypass arm leaked %d ops into the scheduler", cs.Ops)
		}
	}
}
