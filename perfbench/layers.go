package main

import (
	"math"
	"runtime"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// env is one built stack plus the benchmark's clients running on it.
// Layers a workload does not use stay nil.
type env struct {
	c   *core.Cluster
	s   *sched.Scheduler
	v   *volume.Volume
	ca  *cache.Cache
	fs  *rfs.FS
	rec *rec

	// check runs the workload's end-of-run output checks once the
	// engine has drained.
	check func() error
}

// counters is a snapshot of every layer's public counters. Busy times
// are virtual nanoseconds, recovered from the layers' cumulative
// utilization gauges (utilization x elapsed).
type counters struct {
	now   sim.Time
	fired uint64

	netMsgs, netBytes int64
	linkBusy          []float64

	busBusy                        float64 // summed over every bus of every card
	buses                          int
	nandReads, nandProgs, nandEras int64
	corrected, uncorrectable       int64

	pcieBusy  float64 // summed over nodes
	pcieBytes int64
	cpuBusyMs float64 // host CPU model, summed over nodes
	cores     int     // host cores per node

	vol         volume.Stats
	cache       cache.Stats
	rfsWritten  int64
	rfsMoves    int64
	allocBytes  uint64
	gcCycles    uint32
	enginePools int
}

func snapshot(e *env) counters {
	c := e.c
	now := c.Eng.Now()
	k := counters{now: now, fired: c.Eng.Fired(), cores: c.Params.CPU.Cores}
	k.netMsgs = c.Net.Delivered.Value()
	k.netBytes = c.Net.BytesMoved.Value()
	for _, u := range c.Net.LinkUtilization() {
		k.linkBusy = append(k.linkBusy, u*float64(now))
	}
	for n := 0; n < c.Nodes(); n++ {
		node := c.Node(n)
		for ci := 0; ci < c.Params.CardsPerNode; ci++ {
			cd := node.Card(ci)
			ctl := node.Controller(ci)
			k.nandReads += cd.Reads.Value()
			k.nandProgs += cd.Programs.Value()
			k.nandEras += cd.Erases.Value()
			k.corrected += ctl.CorrectedBits.Value()
			k.uncorrectable += ctl.Uncorrectable.Value()
			for b := 0; b < c.Params.Geometry.Buses; b++ {
				k.busBusy += cd.BusUtilization(b) * float64(now)
				k.buses++
			}
		}
		k.pcieBusy += node.Host.ToHostUtilization() * float64(now)
		k.pcieBytes += node.Host.ToHostBytes()
		k.cpuBusyMs += node.CPU.Stats().CoreBusyMs
	}
	if e.v != nil {
		k.vol = e.v.Stats()
	}
	if e.ca != nil {
		k.cache = e.ca.Stats()
	}
	if e.fs != nil {
		k.rfsWritten, k.rfsMoves = e.fs.PagesWritten, e.fs.CleanMoves
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	k.allocBytes, k.gcCycles = m.TotalAlloc, m.NumGC
	k.enginePools = c.Eng.Stats().PoolSlots
	return k
}

// gauges tracks minima the traced run samples at every round end.
type gauges struct {
	minFreeBlocks   int
	minFreeSegments int
}

func newGauges() gauges { return gauges{minFreeBlocks: -1, minFreeSegments: -1} }

func (g *gauges) sample(e *env) {
	if e.v != nil {
		if f := e.v.Stats().MinFreeBlocks; g.minFreeBlocks < 0 || f < g.minFreeBlocks {
			g.minFreeBlocks = f
		}
	}
	if e.fs != nil {
		if f := e.fs.FreeSegments(); g.minFreeSegments < 0 || f < g.minFreeSegments {
			g.minFreeSegments = f
		}
	}
}

// traced holds everything the traced window measured.
type traced struct {
	k0, k1   counters
	sched    sched.Snapshot
	g        gauges
	rec      *rec
	nodes    int
	ops      int64   // client operations in the traced window
	cpu      float64 // host CPU seconds of the traced window
	split    map[string]float64
	untraced float64 // host_req_per_s of the untraced rounds that followed
	micro    microResult
}

// cpuLayers are the buckets reported as <layer>.cpu_frac, in order.
var cpuLayers = []string{
	"sim", "fabric", "ecc", "nand", "core", "hostif", "flashctl", "flashserver",
	"sched", "ftl", "volume", "cache", "rfs", "ispvol", "isp", "accel", "bench", "other",
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		return 0
	}
	return a / b
}

// perLayer computes every per-layer metric from a traced window.
func perLayer(t *traced) []metric {
	k0, k1 := t.k0, t.k1
	ops := float64(t.ops)
	span := float64(k1.now - k0.now)
	var out []metric
	add := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, metric{name, unit, v})
	}
	events := float64(k1.fired - k0.fired)

	add("sim.events_per_req", "count", ratio(events, ops))
	add("sim.host_ns_per_event", "ns", ratio(t.cpu*1e9, events))
	add("sim.pool_slots", "count", float64(k1.enginePools))
	add("sim.micro_ns_per_event", "ns", t.micro.engineNsPerEvent)

	add("fabric.msgs_per_req", "count", ratio(float64(k1.netMsgs-k0.netMsgs), ops))
	add("fabric.bytes_per_req", "B", ratio(float64(k1.netBytes-k0.netBytes), ops))
	linkMax := 0.0
	for i := range k1.linkBusy {
		if u := ratio(k1.linkBusy[i]-k0.linkBusy[i], span); u > linkMax {
			linkMax = u
		}
	}
	add("fabric.link_util_max", "frac", linkMax)

	add("ecc.encode_ns_per_page", "ns", t.micro.eccEncodeNs)
	add("ecc.decode_ns_per_page", "ns", t.micro.eccDecodeNs)
	add("ecc.corrected_bits", "count", float64(k1.corrected-k0.corrected))
	add("ecc.uncorrectable", "count", float64(k1.uncorrectable-k0.uncorrectable))

	add("nand.reads_per_req", "count", ratio(float64(k1.nandReads-k0.nandReads), ops))
	add("nand.programs_per_req", "count", ratio(float64(k1.nandProgs-k0.nandProgs), ops))
	add("nand.erases", "count", float64(k1.nandEras-k0.nandEras))
	add("nand.bus_util", "frac", ratio(k1.busBusy-k0.busBusy, span*float64(k1.buses)))

	add("hostif.pcie_util", "frac", ratio(k1.pcieBusy-k0.pcieBusy, span*float64(t.nodes)))
	add("hostif.pcie_bytes_per_req", "B", ratio(float64(k1.pcieBytes-k0.pcieBytes), ops))
	add("hostmodel.cpu_util", "frac",
		ratio((k1.cpuBusyMs-k0.cpuBusyMs)*float64(sim.Millisecond), span*float64(t.nodes*k1.cores)))

	sn := t.sched
	add("sched.avg_batch", "count", sn.AvgBatch)
	add("sched.coalesced", "count", float64(sn.Coalesced))
	add("sched.peak_queue", "count", float64(sn.PeakQueue))
	add("sched.rejected", "count", float64(sn.Rejected))
	rtP99 := 0.0
	for _, cs := range sn.Classes {
		if cs.Class == sched.Realtime.String() {
			rtP99 = cs.P99Us
		}
	}
	add("sched.rt_p99_us", "us", rtP99)

	vd := k1.vol.Delta(k0.vol)
	add("volume.write_amp", "ratio", vd.WriteAmp)
	add("volume.gc_moves_per_write", "ratio", ratio(float64(vd.GCMoves), float64(vd.HostWrites)))
	add("volume.erases", "count", float64(vd.FlashErases))
	add("volume.min_free_blocks", "count", math.Max(0, float64(t.g.minFreeBlocks)))
	add("volume.read_p99_us", "us", spanPct(t.rec, spanVolRead, 99))
	add("volume.write_p99_us", "us", spanPct(t.rec, spanVolWrite, 99))

	cd := k1.cache.Delta(k0.cache)
	add("cache.hit_rate", "frac", cd.HitRate)
	add("cache.read_p50_us", "us", spanPct(t.rec, spanCacheRead, 50))
	add("cache.evictions", "count", float64(cd.Evictions))
	add("cache.flushes", "count", float64(cd.Flushes))
	add("cache.write_throughs", "count", float64(cd.WriteThroughs))
	add("cache.invalidations_sent", "count", float64(cd.InvalidationsSent))
	add("cache.invalidations_applied", "count", float64(cd.InvalidationsApplied))
	add("cache.fills_poisoned", "count", float64(cd.FillsPoisoned))
	add("cache.demotions", "count", float64(cd.Demotions))
	add("cache.tier_reads", "count", float64(cd.TierReads))

	written := float64(k1.rfsWritten - k0.rfsWritten)
	add("rfs.write_amp", "ratio", ratio(written+float64(k1.rfsMoves-k0.rfsMoves), written))
	add("rfs.min_free_segments", "count", math.Max(0, float64(t.g.minFreeSegments)))
	add("rfs.read_p99_us", "us", spanPct(t.rec, spanRFSRead, 99))

	add("ispvol.dev_query_p50_us", "us", spanPct(t.rec, spanDevQuery, 50))
	add("ispvol.dev_query_p99_us", "us", spanPct(t.rec, spanDevQuery, 99))
	add("ispvol.host_query_p50_us", "us", spanPct(t.rec, spanHostQuery, 50))
	add("ispvol.host_query_p99_us", "us", spanPct(t.rec, spanHostQuery, 99))
	add("ispvol.dev_scan_mbps", "MB/s", scanMBps(t.rec, spanDevQuery))
	add("ispvol.host_scan_mbps", "MB/s", scanMBps(t.rec, spanHostQuery))

	for _, l := range cpuLayers {
		add(l+".cpu_frac", "frac", t.split[l])
	}
	add("runtime.gc_cpu_frac", "frac", t.split["runtime.gc"])
	add("runtime.gc_cycles", "count", float64(k1.gcCycles-k0.gcCycles))
	add("runtime.alloc_bytes_per_req", "B", ratio(float64(k1.allocBytes-k0.allocBytes), ops))

	add("trace.overhead_frac", "ratio", ratio(ratio(ops, t.cpu), t.untraced))
	return out
}

func spanPct(r *rec, sp span, p float64) float64 {
	if len(r.spans[sp]) == 0 {
		return 0
	}
	return percentile(sortedCopy(r.spans[sp]), 0, p)
}

// scanMBps is bytes scanned over summed query time: the throughput one
// query of this placement sees.
func scanMBps(r *rec, sp span) float64 {
	return ratio(float64(r.spanBytes[sp]), r.spanElapse[sp].Seconds()) / 1e6
}
