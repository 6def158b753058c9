package ispvol_test

// Tests for distributed queries over files of the cluster RFS: the
// Figure 8 pipeline end-to-end (file -> cluster-wide physical-address
// query -> scheduler-admitted engine scan -> merge), cross-validated
// against the host-mediated file path.

import (
	"fmt"
	"testing"

	"repro/internal/accel/tablescan"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
)

func fileParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 2
	p.Geometry.PagesPerBlock = 16
	return p
}

func newFileSystem(t *testing.T, nodes int) (*core.Cluster, *rfs.FS, *ispvol.System) {
	t.Helper()
	c, err := core.NewCluster(fileParams(nodes))
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
	return c, fs, sys
}

// seedFile appends n generated pages to a fresh file.
func seedFile(t *testing.T, c *core.Cluster, fs *rfs.FS, name string, n int, gen func(idx int, page []byte)) *rfs.File {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	ps := f.PageSize()
	var firstErr error
	next := 0
	var issue func()
	issue = func() {
		if next >= n {
			return
		}
		idx := next
		next++
		buf := make([]byte, ps)
		gen(idx, buf)
		f.AppendPage(buf, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("seed %s page %d: %w", name, idx, err)
			}
			issue()
		})
	}
	for i := 0; i < 32 && i < n; i++ {
		issue()
	}
	c.Run()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return f
}

// needlePages plants the needle mid-page every 4th page and across
// the junction of pages 5 and 6 (adjacent file pages live on
// different chips — and nodes — of the striped log, so the junction
// exercises the distributed edge stitch).
func needlePages(needle string, ps int) func(int, []byte) {
	nb := []byte(needle)
	split := len(nb) / 2
	return func(idx int, page []byte) {
		for i := range page {
			page[i] = byte('a' + (idx+i)%17)
		}
		if idx%4 == 1 {
			copy(page[ps/2:], nb)
		}
		if idx == 5 {
			copy(page[ps-split:], nb[:split])
		}
		if idx == 6 {
			copy(page, nb[split:])
		}
	}
}

func TestSearchFileDistributedVsHostMediated(t *testing.T) {
	c, fs, sys := newFileSystem(t, 2)
	const needle = "BlueDBM-RFS"
	const pages = 128
	f := seedFile(t, c, fs, "haystack", pages, needlePages(needle, fs.PageSize()))

	dist, err := searchSync(sys, 0, ispvol.File(f), ispvol.Device, []byte(needle))
	if err != nil {
		t.Fatal(err)
	}
	if dist.FailedPages > 0 {
		t.Fatalf("%d pages failed", dist.FailedPages)
	}
	// 32 in-page plants (idx%4==1) plus the one junction straddle.
	if want := pages/4 + 1; len(dist.Matches) != want {
		t.Fatalf("distributed found %d matches, want %d", len(dist.Matches), want)
	}
	host, err := searchSync(sys, 0, ispvol.File(f), ispvol.Host, []byte(needle))
	if err != nil {
		t.Fatal(err)
	}
	if len(host.Matches) != len(dist.Matches) {
		t.Fatalf("host-mediated found %d matches, distributed %d", len(host.Matches), len(dist.Matches))
	}
	for i := range host.Matches {
		if host.Matches[i] != dist.Matches[i] {
			t.Fatalf("match %d diverges: host %d, distributed %d", i, host.Matches[i], dist.Matches[i])
		}
	}
	// The engines read device-side through Accel admission: zero bytes
	// of haystack cross into host memory on the distributed arm.
	if dist.Throughput <= 0 || host.Throughput <= 0 {
		t.Fatal("throughput not stamped")
	}
}

func TestTableScanFileDistributedVsHostMediated(t *testing.T) {
	c, fs, sys := newFileSystem(t, 2)
	ps := fs.PageSize()
	perPage := tablescan.RecordsPerPage(ps)
	const pages = 64
	id := int64(0)
	gen := func(idx int, page []byte) {
		recs := make([]tablescan.Record, perPage)
		for i := range recs {
			recs[i] = tablescan.Record{ID: uint64(id), ColA: id % 7, ColB: id % 13}
			id++
		}
		enc, err := tablescan.EncodeRecords(recs, ps)
		if err != nil {
			t.Fatal(err)
		}
		copy(page, enc)
	}
	f := seedFile(t, c, fs, "table", pages, gen)

	pred := tablescan.Predicate{Col: tablescan.ColB, Op: tablescan.OpEQ, Value: 3}
	dist, err := scanSync(sys, 0, ispvol.File(f), ispvol.Device, pred)
	if err != nil {
		t.Fatal(err)
	}
	host, err := scanSync(sys, 0, ispvol.File(f), ispvol.Host, pred)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Rows != int64(pages*perPage) || host.Rows != dist.Rows {
		t.Fatalf("rows scanned: dist %d host %d want %d", dist.Rows, host.Rows, pages*perPage)
	}
	if len(dist.Matches) == 0 || len(dist.Matches) != len(host.Matches) {
		t.Fatalf("matches: dist %d host %d", len(dist.Matches), len(host.Matches))
	}
	for i := range dist.Matches {
		if dist.Matches[i] != host.Matches[i] {
			t.Fatalf("record %d diverges", i)
		}
	}
	// Selection pushdown: the distributed arm ships only qualifying
	// records to the host; the host arm hauled every page.
	if dist.BytesToHost >= host.BytesToHost {
		t.Fatalf("pushdown moved %d bytes to host, host-mediated %d", dist.BytesToHost, host.BytesToHost)
	}
}

func TestVolumeRangeQueriesRequireVolume(t *testing.T) {
	_, _, sys := newFileSystem(t, 1)
	if _, err := searchSync(sys, 0, ispvol.VolumeRange(0, 8), ispvol.Device, []byte("x")); err == nil {
		t.Fatal("volume-range search on a volume-less system succeeded")
	}
	if _, err := searchSync(sys, 0, ispvol.VolumeRange(0, 8), ispvol.Host, []byte("x")); err == nil {
		t.Fatal("volume-range host search on a volume-less system succeeded")
	}
	if _, err := scanSync(sys, 0, ispvol.VolumeRange(0, 8), ispvol.Device, tablescan.Predicate{}); err == nil {
		t.Fatal("volume-range scan on a volume-less system succeeded")
	}
	if _, err := scanSync(sys, 0, ispvol.VolumeRange(0, 8), ispvol.Host, tablescan.Predicate{}); err == nil {
		t.Fatal("volume-range host scan on a volume-less system succeeded")
	}
}
