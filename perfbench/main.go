// Command perfbench is the repository benchmark. It builds one BlueDBM
// stack per named workload, drives it with closed-loop clients through
// the layers' public APIs, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output, one JSON object.
//
// Usage, from the directory holding this file:
//
//	go run . -workload fabric-mix -seed 1 -seconds 12 -trace 0
//
// A run has three phases:
//
//   - Set-up, five times over: build the stack, seed its data and
//     warm it up with the clients running. setup_s is the median. The
//     first stack also runs the start of the window on its own, and
//     the measured stack must reproduce its digest (determinism check).
//   - The measured window on the last stack: a fixed number of rounds
//     of fixed virtual length, scaled from -seconds. Every metric
//     covers exactly this window, so all but the host-side ones repeat
//     exactly for a seed, and two commits are timed on the same work.
//     With -trace 1 the window runs under the CPU profiler with layer
//     counters and spans on, and the first stack runs the whole window
//     untraced to give the speed trace.overhead_frac compares with.
//   - Drain and check: clients stop, the engine must drain to
//     Pending() == 0 with every client operation completed, and the
//     workload checks its outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"repro/internal/sim"
)

// scenario is one named benchmark workload.
type scenario struct {
	name string
	// round is the virtual length of one measured round. The window is
	// a whole number of rounds: roundsPerSec per second asked for
	// (about what a 2-core x86 VM runs in that much CPU time), and
	// at least minRounds. The window is fixed virtual work, so two
	// commits are always timed on the same work.
	round        sim.Time
	roundsPerSec float64
	minRounds    int
	// warm is the virtual warm-up run inside set-up.
	warm sim.Time
	// build constructs the stack, seeds it and starts the clients
	// (nothing is counted until the window opens).
	build func(seed uint64) (*env, error)
}

var workloads = []scenario{fabricMix, volumeChurn, cacheHot, ispScan, cacheTier}

const setupReps = 5

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
}

func main() {
	name := flag.String("workload", "", "workload to run: fabric-mix, volume-churn, cache-hot, isp-scan or cache-tier")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "length of the measured window, in CPU-seconds of a 2-core x86 VM")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()

	var w *scenario
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		printResult(result{attempted: max(res.attempted, 1), failed: res.failed})
		os.Exit(1)
	}
	printResult(res)
}

// cpuSeconds is the CPU time this process has used. Host-side rates
// and set-up times are measured in it rather than in elapsed time:
// on a machine shared with other work, elapsed time also counts the
// time other processes held the CPU, and that swamps the effects the
// benchmark exists to show.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func printResult(r result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// heapPeak tracks the largest live heap seen at the sample points
// (each after a forced GC, so the figure does not depend on when the
// collector happened to run).
type heapPeak struct{ bytes uint64 }

func (h *heapPeak) sample() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.bytes {
		h.bytes = s[0].Value.Uint64()
	}
}

// setup builds a stack and runs its warm-up.
func setup(w *scenario, seed uint64) (*env, error) {
	e, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	e.c.Eng.RunUntil(e.c.Eng.Now() + w.warm)
	if err := e.rec.checkErr; err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// window runs the measured window on e: rounds rounds of w.round
// virtual time, with clients counted. each runs after every round.
// It returns the process CPU seconds the rounds took.
func window(e *env, w *scenario, rounds int, each func(round int)) float64 {
	eng := e.c.Eng
	start := eng.Now()
	e.rec.counting = true
	cpu0 := cpuSeconds()
	for i := 1; i <= rounds && e.rec.checkErr == nil; i++ {
		eng.RunUntil(start + sim.Time(i)*w.round)
		if each != nil {
			each(i)
		}
	}
	cpu := cpuSeconds() - cpu0
	e.rec.counting = false
	return cpu
}

func run(w *scenario, seed uint64, seconds float64, trace bool) (result, error) {
	var res result
	rounds := max(w.minRounds, int(math.Round(seconds*w.roundsPerSec)))
	// The determinism probe runs the first round on the first stack
	// built; the traced run has it run the whole window, untraced, which
	// also gives the speed the traced window is compared with.
	probeRounds := 1
	if trace {
		probeRounds = rounds
	}
	var peak heapPeak
	var setupS []float64
	var probeDigest uint64
	var probeOps int64
	var probeCPU float64
	var e *env
	for rep := 0; rep < setupReps; rep++ {
		e = nil
		runtime.GC()
		t0 := cpuSeconds()
		var err error
		if e, err = setup(w, seed); err != nil {
			return res, err
		}
		setupS = append(setupS, cpuSeconds()-t0)
		peak.sample()
		if rep == 0 {
			probeCPU = window(e, w, probeRounds, nil)
			probeDigest, probeOps = e.rec.digest, e.rec.ops
		}
	}

	r := e.rec
	var tr *traced
	var prof *cpuProfile
	var samples int64
	if trace {
		tr = &traced{rec: r, nodes: e.c.Nodes(), g: newGauges(), untraced: ratio(float64(probeOps), probeCPU)}
		tr.k0 = snapshot(e)
		e.s.ResetStats()
		var err error
		if prof, err = startProfile(); err != nil {
			return res, err
		}
		r.traceOn = true
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu := window(e, w, rounds, func(i int) {
		if i == probeRounds && r.digest != probeDigest {
			r.fail("determinism: digest after %d rounds is %016x, the probe stack's %016x", i, r.digest, probeDigest)
		}
		if trace {
			tr.g.sample(e)
		}
	})
	runtime.ReadMemStats(&m1)
	if trace {
		var err error
		if tr.split, samples, err = prof.stop(); err != nil {
			return res, err
		}
		r.traceOn = false
		tr.k1 = snapshot(e)
		tr.sched = e.s.Snapshot()
		tr.ops, tr.cpu = r.ops, cpu
	}
	peak.sample()
	res.attempted, res.failed = r.ops, r.failed

	// Drain and check.
	r.stopped = true
	e.c.Eng.Run()
	if r.checkErr == nil {
		if n := e.c.Eng.Pending(); n != 0 {
			r.fail("engine did not drain: %d events pending", n)
		} else if r.outstanding != 0 {
			r.fail("%d client operations never completed", r.outstanding)
		}
	}
	if r.checkErr == nil && e.check != nil {
		if err := e.check(); err != nil {
			r.fail("%v", err)
		}
	}
	if r.checkErr != nil {
		return res, fmt.Errorf("output check failed: %w", r.checkErr)
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failed operation: %v\n", r.firstErr)
	}
	if r.ops == 0 {
		return res, fmt.Errorf("no operation completed in the window")
	}

	rt := sortedCopy(r.rt)
	p50 := percentile(rt, r.rtFailed, 50)
	p99 := percentile(rt, r.rtFailed, 99)
	above := r.rtFailed
	for i := len(rt) - 1; i >= 0 && rt[i] > p99; i-- {
		above++
	}
	mean := 0.0
	for _, v := range rt {
		mean += v
	}
	mean /= float64(max(len(rt), 1))
	minPer := int64(math.MaxInt64)
	for _, n := range r.rtPerStream {
		minPer = min(minPer, n)
	}
	virt := (sim.Time(rounds) * w.round).Seconds()
	fmt.Printf("%s seed %d: %d rounds of %v (%.3f s virtual) in %.2f s of CPU, %d ops, %d failed, %d output checks, digest %016x\n",
		w.name, seed, rounds, w.round, virt, cpu, r.ops, r.failed, r.checkCount, r.digest)
	fmt.Printf("realtime: %d samples over %d streams (fewest per stream %d), %d above p99, p50 %.3f us, p99 %.3f us\n",
		len(rt)+int(r.rtFailed), len(r.rtPerStream), minPer, above, p50, p99)
	if math.IsInf(p99, 1) {
		return res, fmt.Errorf("more than 1%% of realtime operations failed")
	}
	if above < 10 {
		return res, fmt.Errorf("only %d realtime samples above p99; the window is too short", above)
	}

	res.correct = true
	if !trace {
		res.metrics = []metric{
			{"host_req_per_s", "1/s", float64(r.ops) / cpu},
			{"allocs_per_req", "count", float64(m1.Mallocs-m0.Mallocs) / float64(r.ops)},
			{"peak_heap_mb", "MB", float64(peak.bytes) / (1 << 20)},
			{"setup_s", "s", median(setupS)},
			{"sim_rt_mean_us", "us", mean},
			{"sim_rt_p99_us", "us", p99},
			{"sim_mbps", "MB/s", float64(r.bytes) / virt / 1e6},
		}
		return res, nil
	}
	var err error
	if tr.micro, err = runMicro(e.c.Params.PageSize(), seed); err != nil {
		return res, err
	}
	res.metrics = perLayer(tr)
	printCPU(tr.split, samples)
	return res, nil
}

// printCPU prints the traced run's CPU split, largest first.
func printCPU(cpu map[string]float64, samples int64) {
	keys := make([]string, 0, len(cpu))
	for k := range cpu {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return cpu[keys[i]] > cpu[keys[j]] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.3f", k, cpu[k])
	}
	fmt.Printf("cpu split over %d profile samples:%s\n", samples, b.String())
}
