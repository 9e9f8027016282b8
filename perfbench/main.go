// Command perfbench is the repository's benchmark. It drives three
// seeded workloads through the public pidcomm API and reports the
// system's two clocks: simulated time (what the modelled PIM machine
// takes) and host time (what the Go simulator spends), end to end and
// layer by layer.
//
//	go run . --workload serve|compile|functional --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs half the time untraced and half traced, keeps one span per timed
// call into the program, writes the spans out and prints the per-layer
// metrics. Every output is checked; the last line of standard output is
// one JSON object {correct, attempted, failed, metrics}, and any failed
// check exits non-zero. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one seeded benchmark workload. runWorkload sets it up
// several times, then runs passes until the time budget is spent.
type workload interface {
	// setUp builds everything the measured phase needs from the seed
	// and warms it up.
	setUp() error
	// minPasses is how many passes produce every simulated result once;
	// a measured phase runs a whole multiple of it, so every phase holds
	// the same mix of work.
	minPasses() int
	// windows returns how many consecutive ops one throughput and
	// median sample and one tail sample are taken over, and passClass
	// the class of pass i: passes of one class do the same work.
	windows() (rate, tail int)
	passClass(i int) int
	// pass runs the i-th unit of measured work, appends the host cost in
	// seconds of every op it completes to ops, and returns an error for
	// any failed output check.
	pass(i int, tr *tracer, ops *[]float64) error
	// sim returns the simulated results of the first minPasses passes:
	// deterministic for a seed, bit for bit.
	sim() []metric
	// counters returns the program's own counters (cache and fusion
	// statistics) summed over the passes since resetCounters.
	counters() []metric
	resetCounters()
	// outputChecks is the tally of every output check so far.
	outputChecks() *checks
}

// metric is one reported number with its unit and the count of samples
// behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "serve":
		return newServe(seed, defaultServeConfig()), nil
	case "compile":
		return newCompile(seed, defaultCompileConfig()), nil
	case "functional":
		return newFunctional(seed, defaultFunctionalConfig()), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve, compile or functional)", name)
}

// setupReps is how many times a run sets up its workload; setup_s is
// the median.
const setupReps = 3

// phase is the outcome of one measured phase.
type phase struct {
	wall    float64   // host seconds, without the calibration bursts
	ops     []float64 // host seconds per op
	passes  int
	classes []int // class of each pass
	ends    []int // end of each pass's ops in ops
	mem0    memSnap
	mem1    memSnap
}

// measure runs passes, starting at pass index *next, for at least the
// given host seconds and at least until pass minPasses has run.
func measure(w workload, seconds float64, tr *tracer, next *int) (phase, error) {
	var ph phase
	ph.mem0 = readMem()
	start, cal0 := time.Now(), hostCal.spent
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ph.passes == 0 || *next%w.minPasses() != 0 || time.Now().Before(deadline) {
		hostCal.tick()
		if err := w.pass(*next, tr, &ph.ops); err != nil {
			return ph, err
		}
		ph.classes = append(ph.classes, w.passClass(*next))
		ph.ends = append(ph.ends, len(ph.ops))
		*next++
		ph.passes++
	}
	ph.wall = time.Since(start).Seconds() - (hostCal.spent - cal0)
	ph.mem1 = readMem()
	return ph, nil
}

// throughput returns ops per host second of program time, the ops'
// summed host cost. Within each class of passes it takes the median
// over windows of w consecutive ops of one pass (the whole pass when w
// is 0 or larger) of w over their summed cost; the classes combine
// weighted by their op counts. It also returns the window count.
func throughput(ph phase, w int) (float64, int) {
	rates := map[int][]float64{}
	counts := map[int]int{}
	lo := 0
	for p, hi := range ph.ends {
		c := ph.classes[p]
		counts[c] += hi - lo
		n := w
		if n <= 0 || n > hi-lo {
			n = hi - lo
		}
		for s := lo; s+n <= hi && n > 0; s += n {
			var sum float64
			for _, x := range ph.ops[s : s+n] {
				sum += x
			}
			rates[c] = append(rates[c], float64(n)/sum)
		}
		lo = hi
	}
	var ops, secs float64
	windows := 0
	for c, rs := range rates {
		ops += float64(counts[c])
		secs += float64(counts[c]) / percentile(sorted(rs), 0.5)
		windows += len(rs)
	}
	return ops / secs, windows
}

// outcome is everything one run reports.
type outcome struct {
	attempted int
	err       error
	metrics   []metric
	checks    checks
}

// runWorkload performs one complete run: setups, the untraced phase
// and, with trace, the traced phase.
func runWorkload(name string, seed int64, seconds float64, trace bool, spansPath string) (out outcome) {
	var (
		w      workload
		setups []float64
	)
	defer func() {
		if w != nil {
			out.checks = *w.outputChecks()
		}
	}()
	hostCal.start()
	for k := 0; k < setupReps; k++ {
		nw, err := newWorkload(name, seed)
		if err != nil {
			return outcome{err: err}
		}
		w = nil
		runtime.GC()
		t0, cal0 := time.Now(), hostCal.spent
		if err := nw.setUp(); err != nil {
			return outcome{err: fmt.Errorf("set-up: %w", err)}
		}
		setups = append(setups, time.Since(t0).Seconds()-(hostCal.spent-cal0))
		w = nw
	}

	untraced := seconds
	if trace {
		untraced = seconds / 2
	}
	next := 0
	ph, err := measure(w, untraced, nil, &next)
	out.attempted = len(ph.ops)
	if err != nil {
		out.attempted++
		out.err = err
		return out
	}
	if !trace {
		sc, bursts := hostCal.scale()
		out.metrics = endToEnd(w, ph, sorted(setups), sc, bursts)
		// The heap is weighed after the last use of the op samples, so
		// it leaves out the benchmark's own samples, whose count follows
		// the host's speed.
		out.metrics = append(out.metrics, metric{name: "heap_mb", unit: "MB", value: liveHeapMB(), n: 1})
		return out
	}

	hostCal.stop()
	w.resetCounters()
	tr := newTracer()
	tph, err := measure(w, seconds/2, tr, &next)
	out.attempted += len(tph.ops)
	if err != nil {
		out.attempted++
		out.err = err
		return out
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	out.metrics = perLayer(w, ph, tph, tr)
	return out
}

// endToEnd computes the end-to-end metrics of an untraced phase, but
// for heap_mb. Host times are scaled by sc, the run's reference scale
// over bursts calibration bursts (see calib.go).
func endToEnd(w workload, ph phase, setups []float64, sc float64, bursts int) []metric {
	n := len(ph.ops)
	rw, tw := w.windows()
	rate, rwindows := throughput(ph, rw)
	p, tv, beyond, windows := windowTail(ph.ops, tw)
	p50, mwindows := windowMedian(ph.ops, rw)
	setup := percentile(setups, 0.5)
	raw := func(v float64, unit string) string {
		return fmt.Sprintf("raw %.6g %s, reference scale %.4f over %d bursts", v, unit, sc, bursts)
	}
	ms := []metric{
		{name: "setup_s", unit: "s", value: setup * sc, n: len(setups), note: raw(setup, "s")},
		{name: "ops_per_s", unit: "1/s", value: rate / sc, n: n,
			note: fmt.Sprintf("median over %d windows of the ops' program time; %d ops in %.3f s of wall time; %s",
				rwindows, n, ph.wall, raw(rate, "1/s"))},
		{name: "op_p50_us", unit: "us", value: p50 * sc * 1e6, n: n,
			note: fmt.Sprintf("median over %d windows of the window's median; %s", mwindows, raw(p50*1e6, "us"))},
		{name: "op_tail_us", unit: "us", value: tv * sc * 1e6, n: n,
			note: fmt.Sprintf("p%g of each window of ops, %d samples beyond it, median over %d windows; %s",
				p*100, beyond, windows, raw(tv*1e6, "us"))},
	}
	for _, m := range w.sim() {
		if isEndToEnd(m.name) {
			ms = append(ms, m)
		}
	}
	return ms
}

// endToEndNames lists the end-to-end metrics in BENCHMARK.json order.
var endToEndNames = []string{"setup_s", "ops_per_s", "op_p50_us", "op_tail_us", "heap_mb",
	"slo_p50_ms", "slo_p99_ms", "goodput_rho", "sim_s"}

func isEndToEnd(name string) bool {
	for _, n := range endToEndNames {
		if n == name {
			return true
		}
	}
	return false
}

// perLayer computes the per-layer metrics: host time from the traced
// phase's spans, simulated time and counters from the workload, and the
// Go runtime's statistics from the untraced phase.
func perLayer(w workload, ph, tph phase, tr *tracer) []metric {
	self := tr.selfTimes()
	var (
		busy   [numLayers]float64
		durs   [numLayers][]float64
		hitUS  []float64
		missUS []float64
		// admission and scheduler counters
		rejected, idle, depthMax int64
		depthSum, execBytes      float64
	)
	for i, s := range tr.spans {
		busy[s.layer] += self[i]
		d := float64(s.end-s.start) / 1e3 // µs
		durs[s.layer] = append(durs[s.layer], d)
		switch s.layer {
		case lCompile:
			if s.arg == 1 {
				hitUS = append(hitUS, d)
			} else {
				missUS = append(missUS, d)
			}
		case lAdmit:
			rejected += s.arg
		case lSched:
			if s.req < 0 {
				idle++
			}
			depthSum += float64(s.arg)
			depthMax = max(depthMax, s.arg)
		case lExec:
			execBytes += float64(s.arg)
		}
	}
	for l := range durs {
		durs[l] = sorted(durs[l])
	}
	calls := func(l layer) int { return len(durs[l]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(name string, l layer, p float64) metric {
		return metric{name: name, unit: "us", value: percentile(durs[l], p), n: calls(l)}
	}
	count := func(name string, v float64, n int) metric {
		return metric{name: name, unit: "count", value: v, n: n}
	}
	busyS := func(name string, l layer) metric {
		return metric{name: name, unit: "s", value: busy[l], n: calls(l)}
	}
	hitUS, missUS = sorted(hitUS), sorted(missUS)

	ms := []metric{
		count("compile.calls", float64(calls(lCompile)), calls(lCompile)),
		busyS("compile.busy_s", lCompile),
		{name: "compile.miss_p50_us", unit: "us", value: percentile(missUS, 0.5), n: len(missUS)},
		{name: "compile.hit_p50_us", unit: "us", value: percentile(hitUS, 0.5), n: len(hitUS)},
		us("compile.p99_us", lCompile, 0.99),
	}
	ms = append(ms, w.counters()...)
	ms = append(ms,
		count("cluster.calls", float64(calls(lClusterCompile)+calls(lClusterRun)), calls(lClusterCompile)+calls(lClusterRun)),
		busyS("cluster.compile_busy_s", lClusterCompile),
		busyS("cluster.run_busy_s", lClusterRun),
		count("admit.calls", float64(calls(lAdmit)), calls(lAdmit)),
		busyS("admit.busy_s", lAdmit),
		us("admit.p99_us", lAdmit, 0.99),
		metric{name: "admit.accept_ratio", unit: "ratio", value: ratio(float64(int64(calls(lAdmit))-rejected), float64(calls(lAdmit))), n: calls(lAdmit)},
		count("sched.calls", float64(calls(lSched)), calls(lSched)),
		count("sched.idle_calls", float64(idle), calls(lSched)),
		busyS("sched.busy_s", lSched),
		us("sched.p50_us", lSched, 0.5),
		us("sched.p99_us", lSched, 0.99),
		metric{name: "sched.depth_mean", unit: "count", value: ratio(depthSum, float64(calls(lSched))), n: calls(lSched)},
		count("sched.depth_max", float64(depthMax), calls(lSched)),
		count("exec.calls", float64(calls(lExec)), calls(lExec)),
		busyS("exec.busy_s", lExec),
		us("exec.p50_us", lExec, 0.5),
		us("exec.p99_us", lExec, 0.99),
		metric{name: "exec.host_mbps", unit: "MB/s", value: ratio(execBytes/1e6, busy[lExec]), n: calls(lExec)},
		busyS("mram.fill_busy_s", lFill),
		busyS("mram.read_busy_s", lRead),
		metric{name: "bench.self_s", unit: "s", value: busy[lPass] + busy[lOp], n: calls(lPass) + calls(lOp),
			note: "the benchmark's own time between its calls into the program"},
	)
	for _, m := range w.sim() {
		if !isEndToEnd(m.name) {
			ms = append(ms, m)
		}
	}
	c := w.outputChecks()
	ms = append(ms,
		count("check.outputs", float64(c.n), c.n),
		metric{name: "check.inexact_costs", unit: "count", value: float64(c.inexact), n: c.n,
			note: "runs whose breakdown matched the plan's cost only to the meter's rounding"},
	)
	nops := max(len(ph.ops), 1)
	ms = append(ms,
		metric{name: "gc.alloc_b_per_op", unit: "B/op", value: float64(ph.mem1.totalAlloc-ph.mem0.totalAlloc) / float64(nops), n: len(ph.ops)},
		count("gc.cycles", float64(ph.mem1.numGC-ph.mem0.numGC), len(ph.ops)),
		metric{name: "gc.pause_s", unit: "s", value: float64(ph.mem1.pauseNs-ph.mem0.pauseNs) / 1e9, n: len(ph.ops)},
		metric{name: "trace.overhead", unit: "ratio",
			value: 1 - (float64(len(tph.ops))/tph.wall)/(float64(len(ph.ops))/ph.wall), n: len(tph.ops),
			note: "1 - traced ops per wall second / untraced ops per wall second"},
	)
	return ms
}

// stamp describes the host a result was measured on.
func stamp(seed int64, w int) string {
	return fmt.Sprintf("seed=%d numcpu=%d gomaxprocs=%d goarch=%s go=%s exec_workers=%d",
		seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version(), w)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve, compile or functional")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "host seconds the measured phase runs")
		trace   = flag.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
		spans   = flag.String("spans", "", "directory the traced run writes its spans to (empty: do not write)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, err := newWorkload(*name, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	spansPath := ""
	if *spans != "" {
		spansPath = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl.gz", *name, *seed))
	}
	workers := 0
	if *name == "functional" {
		workers = functionalWorkers()
	}
	fmt.Printf("# perfbench workload=%s trace=%d seconds=%g %s\n", *name, *trace, *seconds, stamp(*seed, workers))
	o := runWorkload(*name, *seed, *seconds, *trace == 1, spansPath)
	res := jsonResult{Correct: o.err == nil, Attempted: max(o.attempted, 1), Metrics: map[string]jsonMetric{}}
	fmt.Printf("# checks: %d outputs checked, %d failed, %d charged the plan's cost only to rounding\n",
		o.checks.n, o.checks.failed, o.checks.inexact)
	if o.err != nil {
		res.Failed = 1
		fmt.Printf("# FAILED: %v\n", o.err)
	}
	for _, m := range o.metrics {
		line := fmt.Sprintf("%-24s %16.6f %-8s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if o.err != nil {
		os.Exit(1)
	}
}
