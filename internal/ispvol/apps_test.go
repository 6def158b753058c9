package ispvol_test

// Tests for the distributed application queries: cluster
// nearest-neighbor (LSH candidate fan-out + inline Hamming compare)
// and the migrating in-store graph traversal, cross-validated against
// the in-memory references and the host-mediated twins.

import (
	"strings"
	"testing"

	"repro/internal/accel/graph"
	"repro/internal/accel/lsh"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/volume"
	"repro/internal/workload"
)

// nnFixture seeds nItems near-duplicate items into volume pages
// [0, nItems) and returns the stack plus the dataset and query.
func nnFixture(t *testing.T, nodes, nItems int) (*core.Cluster, *sched.Scheduler, *volume.Volume, *ispvol.System, map[int][]byte, []byte) {
	t.Helper()
	ps := core.DefaultParams(1).Geometry.PageSize
	items, query, err := workload.NearDuplicateSet(nItems, ps, 7, 40, 41)
	if err != nil {
		t.Fatal(err)
	}
	base := workload.RandomPages(99)
	fill := func(idx int, page []byte) {
		if idx < nItems {
			copy(page, items[idx])
		} else {
			base(idx, page)
		}
	}
	c, s, v, sys := testSystem(t, nodes, ispvol.DefaultConfig(), fill)
	if nItems > v.Pages() {
		t.Fatalf("%d items exceed the %d-page volume", nItems, v.Pages())
	}
	return c, s, v, sys, items, query
}

// TestDistributedNNMatchesBruteAndHost: the distributed engines, the
// host-mediated software scan and the in-memory brute force must
// agree on the best candidate (including the lowest-id tie-break),
// and the distributed arm must finish the same candidate list faster.
func TestDistributedNNMatchesBruteAndHost(t *testing.T) {
	const nItems = 72
	_, s, _, sys, items, query := nnFixture(t, 2, nItems)

	// LSH candidates: the hash tables' union bucket for the query.
	ix, err := lsh.NewIndex(len(query), 8, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < nItems; id++ {
		if err := ix.Add(id, items[id]); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := ix.Candidates(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 8 {
		t.Fatalf("only %d LSH candidates; fixture too sparse to be meaningful", len(ids))
	}
	lpns := append([]int(nil), ids...) // item id == its volume page

	dist, err := nnSync(sys, 0, ispvol.VolumePages(lpns), ispvol.Device, query, ids)
	if err != nil {
		t.Fatal(err)
	}
	host, err := nnSync(sys, 0, ispvol.VolumePages(lpns), ispvol.Host, query, ids)
	if err != nil {
		t.Fatal(err)
	}
	cand := map[int][]byte{}
	for _, id := range ids {
		cand[id] = items[id]
	}
	bruteID, bruteDist := lsh.NearestBrute(query, cand)

	for _, r := range []*ispvol.NNResult{dist, host} {
		if r.FailedPages != 0 {
			t.Fatalf("failed pages: %+v", r)
		}
		if r.Comparisons != int64(len(ids)) {
			t.Fatalf("compared %d of %d candidates", r.Comparisons, len(ids))
		}
		if r.BestID != bruteID || r.BestDist != bruteDist {
			t.Fatalf("best (%d, %d) != brute force (%d, %d)", r.BestID, r.BestDist, bruteID, bruteDist)
		}
	}
	if dist.CmpPerSec <= host.CmpPerSec {
		t.Fatalf("distributed NN (%.0f cmp/s) should beat host-mediated (%.0f cmp/s)",
			dist.CmpPerSec, host.CmpPerSec)
	}
	// The engines' reads went through the scheduler's Accel class.
	var accelOps int64
	for _, cs := range s.Snapshot().Classes {
		if cs.Class == "accel" {
			accelOps = cs.Ops
		}
	}
	if accelOps < int64(len(ids)) {
		t.Fatalf("accel class saw %d ops, want >= %d: engine reads bypassed admission", accelOps, len(ids))
	}
}

// TestNNEmptyAndMismatchedCandidates: edge cases fail cleanly.
func TestNNEmptyAndMismatchedCandidates(t *testing.T) {
	_, _, _, sys, _, query := nnFixture(t, 2, 16)
	res, err := nnSync(sys, 0, ispvol.VolumePages(nil), ispvol.Device, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestID != -1 || res.Comparisons != 0 {
		t.Fatalf("empty candidate list produced %+v", res)
	}
	if _, err := nnSync(sys, 0, ispvol.VolumePages([]int{1}), ispvol.Device, query, []int{1, 2}); err == nil {
		t.Fatal("mismatched ids/pages accepted")
	}
}

// walkSync runs one migrating traversal to completion.
func walkSync(sys *ispvol.System, origin int, g *graph.Graph, cfg graph.TraverseConfig) (*ispvol.WalkResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.WalkResult, error)) {
		sys.WalkMigrate(origin, g, cfg, done)
	})
}

// walkFixture stores a graph in volume pages [0, V) and returns the
// stack plus the stored graph.
func walkFixture(t *testing.T, nodes int, gcfg graph.Config) (*core.Cluster, *volume.Volume, *ispvol.System, *graph.Graph) {
	t.Helper()
	ps := core.DefaultParams(1).Geometry.PageSize
	adj := graph.GenAdjacency(gcfg, ps)
	base := workload.RandomPages(3)
	fill := func(idx int, page []byte) {
		if idx < gcfg.Vertices {
			enc, err := graph.EncodePage(adj[idx], ps)
			if err != nil {
				panic(err)
			}
			copy(page, enc)
		} else {
			base(idx, page)
		}
	}
	c, _, v, sys := testSystem(t, nodes, ispvol.DefaultConfig(), fill)
	if gcfg.Vertices > v.Pages() {
		t.Fatalf("%d vertices exceed the %d-page volume", gcfg.Vertices, v.Pages())
	}
	addrs, err := v.PhysMap(0, gcfg.Vertices)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewStored(c, gcfg, adj, addrs)
	if err != nil {
		t.Fatal(err)
	}
	return c, v, sys, g
}

// TestWalkMigrateMatchesReference: the migrating walk must replay
// exactly the in-memory reference sequence, per walker, with the
// walker state (checksum + RNG) surviving every fabric hop.
func TestWalkMigrateMatchesReference(t *testing.T) {
	gcfg := graph.Config{Vertices: 150, AvgDegree: 6, Seed: 7}
	_, _, sys, g := walkFixture(t, 3, gcfg)
	cfg := graph.TraverseConfig{Start: 4, Steps: 50, Seed: 13, Walkers: 3}
	res, err := walkSync(sys, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != int64(cfg.Steps*cfg.Walkers) {
		t.Fatalf("steps %d, want %d", res.Steps, cfg.Steps*cfg.Walkers)
	}
	for w := 0; w < cfg.Walkers; w++ {
		if want := graph.ReferenceWalkWalker(g, cfg, w); res.VisitSums[w] != want {
			t.Fatalf("walker %d checksum %x != reference %x", w, res.VisitSums[w], want)
		}
	}
	if res.VisitSum != graph.CombineVisitSums(res.VisitSums) {
		t.Fatal("aggregate checksum mismatch")
	}
	// A volume-striped graph on 3 nodes must actually migrate.
	if res.Migrations == 0 {
		t.Fatal("walk never migrated between nodes")
	}
}

// TestWalkMigrateMatchesHostTraversal: the migrating arm and the
// host-centric graph.Traverse visit identical vertex sequences over
// the same stored graph.
func TestWalkMigrateMatchesHostTraversal(t *testing.T) {
	gcfg := graph.Config{Vertices: 120, AvgDegree: 5, Seed: 19}
	c, _, sys, g := walkFixture(t, 2, gcfg)
	cfg := graph.TraverseConfig{Start: 2, Steps: 40, Seed: 23, Walkers: 2, Mode: graph.ModeHRHF}
	mig, err := walkSync(sys, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	home, err := graph.Traverse(c, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mig.VisitSum != home.VisitSum {
		t.Fatalf("migrating walk %x != home-node walk %x", mig.VisitSum, home.VisitSum)
	}
}

// TestWalkMigrateFailingRead: a walker whose adjacency read fails
// must fail the traversal with walker context, not truncate it. The
// stack is left unseeded, so every adjacency read hits unwritten
// flash and fails at the device.
func TestWalkMigrateFailingRead(t *testing.T) {
	p := core.DefaultParams(2)
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
	sys, err := ispvol.New(c, s, v, ispvol.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gcfg := graph.Config{Vertices: 30, AvgDegree: 4, Seed: 5}
	adj := graph.GenAdjacency(gcfg, c.Params.PageSize())
	addrs := make([]core.PageAddr, gcfg.Vertices)
	for vx := range addrs {
		addrs[vx] = core.LinearPage(c.Params, 1, vx)
	}
	bad, err := graph.NewStored(c, gcfg, adj, addrs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = walkSync(sys, 0, bad, graph.TraverseConfig{Start: 1, Steps: 20, Seed: 3, Walkers: 2})
	if err == nil {
		t.Fatal("failing reads reported success")
	}
	if !strings.Contains(err.Error(), "walker") {
		t.Fatalf("error lost walker context: %v", err)
	}
}
