package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/pidcomm"
)

// The compile workload: a seeded stream of Collective descriptors on a
// cost-only 32x32 machine, about an eighth of them two-member
// sequences and an eighth cluster collectives on a small cost-only
// cluster; about half the stream repeats earlier descriptors. Each
// descriptor is compiled, then Run once. Validation, Auto's (algorithm
// x level) search, lowering, fusion, the plan and trace caches and
// cluster lowering do the work; the scheduler is idle and no bytes move.

type compileConfig struct {
	// descriptors is the stream length; one pass compiles and runs the
	// whole stream on fresh machines, so each pass meets the caches cold.
	descriptors int
}

func defaultCompileConfig() compileConfig {
	return compileConfig{descriptors: 24000}
}

const (
	compileMram  = 1 << 20 // per-PE phantom MRAM of the machine
	clusterHosts = 4       // hosts of the cluster
	clusterShape = 8       // each cluster host is clusterShape x clusterShape PEs
	clusterMram  = 1 << 20
)

// entryKind separates the three kinds of stream entry.
type entryKind int

const (
	single entryKind = iota
	sequence
	cluster
)

// entry is one distinct descriptor of the stream.
type entry struct {
	kind  entryKind
	ds    []pidcomm.Collective // one member, or two for a sequence
	cd    pidcomm.ClusterCollective
	bytes int64 // payload bytes the call moves machine-wide (receive side)
}

func (e *entry) String() string {
	if e.kind == cluster {
		return fmt.Sprintf("cluster %v dims=%s src=%+v dst=%+v lvl=%v algo=%v root=%d flat=%v",
			e.cd.Prim, e.cd.Dims, e.cd.Src, e.cd.Dst, e.cd.Level, e.cd.Algorithm, e.cd.Root, e.cd.Flat)
	}
	s := ""
	for _, d := range e.ds {
		s += fmt.Sprintf("[%v dims=%s src=%+v dst=%+v %v/%v lvl=%v algo=%v]", d.Prim, d.Dims, d.Src, d.Dst, d.Elem, d.Op, d.Level, d.Algorithm)
	}
	return s
}

// compileSim is the simulated outcome of one pass.
type compileSim struct {
	clock    simClock
	opSims   []float64 // simulated time of every executed plan, sorted
	netBusy  float64   // Machine.NetBusy summed over the cluster hosts
	counters cacheCounts
}

type compileBench struct {
	seed    int64
	cfg     compileConfig
	entries []entry
	stream  []int // indices into entries
	hostBuf map[[2]int][][]byte
	first   *compileSim
	cnt     cacheCounts
	checks  checks
	// last holds the latest pass's machine and cluster, caches and all,
	// so heap_mb weighs the program's state and not only the stream.
	last struct {
		mach *pidcomm.Machine
		cl   *pidcomm.Cluster
	}
}

func newCompile(seed int64, cfg compileConfig) *compileBench {
	return &compileBench{seed: seed, cfg: cfg}
}

func (b *compileBench) minPasses() int            { return 1 }
func (b *compileBench) windows() (rate, tail int) { return b.cfg.descriptors, b.cfg.descriptors }
func (b *compileBench) passClass(i int) int       { return 0 }
func (b *compileBench) outputChecks() *checks     { return &b.checks }
func (b *compileBench) resetCounters()            { b.cnt = cacheCounts{} }
func (b *compileBench) counters() []metric        { return b.cnt.metrics() }
func (b *compileBench) numPEs() int               { return serveGroup * serveGroup }
func (b *compileBench) clusterPEs() int           { return clusterHosts * clusterShape * clusterShape }
func (b *compileBench) groupSize(d string) int {
	if d == "11" {
		return b.numPEs()
	}
	return serveGroup
}

var (
	reducing = map[pidcomm.Primitive]bool{pidcomm.ReduceScatter: true, pidcomm.AllReduce: true, pidcomm.Reduce: true}
	elems    = []pidcomm.ElemType{pidcomm.I8, pidcomm.I16, pidcomm.I32, pidcomm.I64}
	ops      = []pidcomm.ReduceOp{pidcomm.Sum, pidcomm.Min, pidcomm.Max, pidcomm.Or, pidcomm.And, pidcomm.Xor}
	levels   = []pidcomm.Level{pidcomm.Baseline, pidcomm.PR, pidcomm.IM, pidcomm.CM}
	// blockLadder is the per-block payload ladder in 8-byte words.
	blockLadder = []int{1, 2, 3, 4, 5, 6, 7, 8}
)

// genStream draws the descriptor stream from the seed.
func (b *compileBench) genStream() {
	rng := rand.New(rand.NewSource(b.seed*7777 + 17))
	b.entries = b.entries[:0]
	b.stream = b.stream[:0]
	b.hostBuf = map[[2]int][][]byte{}
	for k := 0; k < b.cfg.descriptors; k++ {
		if k > 0 && rng.Intn(2) == 0 {
			// A repeat: any earlier distinct descriptor, equally likely.
			b.stream = append(b.stream, rng.Intn(len(b.entries)))
			continue
		}
		var e entry
		switch rng.Intn(8) {
		case 0:
			e = b.genSequence(rng)
		case 1:
			e = b.genCluster(rng)
		default:
			d, bytes := b.genSingle(rng, pidcomm.Primitive(rng.Intn(8)), randDims(rng), 0)
			e = entry{kind: single, ds: []pidcomm.Collective{d}, bytes: bytes}
		}
		b.entries = append(b.entries, e)
		b.stream = append(b.stream, len(b.entries)-1)
	}
}

func randDims(rng *rand.Rand) string { return []string{"10", "01", "11"}[rng.Intn(3)] }

// reduction draws an element type and operator.
func reduction(rng *rand.Rand, d *pidcomm.Collective) {
	d.Elem = elems[rng.Intn(len(elems))]
	d.Op = ops[rng.Intn(len(ops))]
}

// genSingle draws one single-machine descriptor of primitive p over
// dims whose regions start at off: Src at off, Dst at off+2m, where m is
// the per-PE receive size (as in the Figure 14 sweep).
func (b *compileBench) genSingle(rng *rand.Rand, p pidcomm.Primitive, dims string, off int) (pidcomm.Collective, int64) {
	g := b.groupSize(dims)
	m := g * 8 * blockLadder[rng.Intn(len(blockLadder))]
	d := pidcomm.Collective{Prim: p, Dims: dims}
	if reducing[p] {
		reduction(rng, &d)
	}
	switch p {
	case pidcomm.AlltoAll, pidcomm.ReduceScatter, pidcomm.AllReduce:
		d.Src, d.Dst = pidcomm.Span(off, m), pidcomm.At(off+2*m)
	case pidcomm.AllGather:
		d.Src, d.Dst = pidcomm.Span(off, m/g), pidcomm.At(off+2*m)
	case pidcomm.Scatter:
		d.Dst = pidcomm.Span(off, m) // cost-only: the host payload may be nil
	case pidcomm.Gather, pidcomm.Reduce:
		d.Src = pidcomm.Span(off, m)
	case pidcomm.Broadcast:
		d.Dst = pidcomm.Span(off, m)
		d.Hosts = b.hostBuffers(b.numPEs()/g, m)
	}
	// Level: mostly Auto, otherwise an explicit one (a level beyond what
	// the primitive supports resolves to its highest applicable one).
	if rng.Intn(4) == 0 {
		d.Level = levels[rng.Intn(len(levels))]
	}
	// Algorithm: Auto, the reference lowering, or a registered
	// alternative where one applies (Baseline-level only).
	switch r := rng.Intn(8); {
	case r == 0:
		d.Algorithm = pidcomm.AlgoReference
	case r <= 2 && p == pidcomm.AllReduce:
		d.Algorithm = []pidcomm.Algorithm{pidcomm.AlgoRing, pidcomm.AlgoTree, pidcomm.AlgoRabenseifner}[rng.Intn(3)]
	case r <= 2 && p == pidcomm.Broadcast:
		d.Algorithm = []pidcomm.Algorithm{pidcomm.AlgoRing, pidcomm.AlgoTree}[rng.Intn(2)]
	}
	if d.Algorithm > pidcomm.AlgoReference && d.Level != pidcomm.Auto {
		d.Level = pidcomm.Baseline
	}
	return d, int64(m) * int64(b.numPEs())
}

// hostBuffers returns shared per-group payload buffers; the cost-only
// backend never reads them.
func (b *compileBench) hostBuffers(groups, m int) [][]byte {
	key := [2]int{groups, m}
	if hb, ok := b.hostBuf[key]; ok {
		return hb
	}
	hb := make([][]byte, groups)
	for i := range hb {
		hb[i] = make([]byte, m)
	}
	b.hostBuf[key] = hb
	return hb
}

// genSequence draws a two-member sequence of non-rooted primitives over
// one dims selection, the second member in its own regions.
func (b *compileBench) genSequence(rng *rand.Rand) entry {
	chain := []pidcomm.Primitive{pidcomm.AlltoAll, pidcomm.ReduceScatter, pidcomm.AllReduce, pidcomm.AllGather}
	dims := randDims(rng)
	e := entry{kind: sequence}
	for j := 0; j < 2; j++ {
		d, bytes := b.genSingle(rng, chain[rng.Intn(len(chain))], dims, j*(compileMram/2))
		d.Algorithm = pidcomm.AlgoAuto
		e.ds = append(e.ds, d)
		e.bytes += bytes
	}
	return e
}

// genCluster draws one cluster collective over every PE of the cluster.
// Sizes are the global call's: an AlltoAll buffer holds one block per
// cluster PE.
func (b *compileBench) genCluster(rng *rand.Rand) entry {
	hp := b.clusterPEs()
	s := 8 * blockLadder[rng.Intn(len(blockLadder))]
	m := hp * s
	p := pidcomm.Primitive(rng.Intn(8))
	d := pidcomm.ClusterCollective{Collective: pidcomm.Collective{Prim: p, Dims: "11"}}
	if reducing[p] {
		reduction(rng, &d.Collective)
	}
	switch p {
	case pidcomm.AlltoAll, pidcomm.ReduceScatter, pidcomm.AllReduce:
		d.Src, d.Dst = pidcomm.Span(0, m), pidcomm.At(2*m)
	case pidcomm.AllGather:
		d.Src, d.Dst = pidcomm.Span(0, s), pidcomm.At(2*m)
	case pidcomm.Scatter:
		d.Dst = pidcomm.Span(0, s)
	case pidcomm.Gather:
		d.Src = pidcomm.Span(0, s)
	case pidcomm.Reduce:
		d.Src = pidcomm.Span(0, m)
	case pidcomm.Broadcast:
		d.Dst = pidcomm.Span(0, m)
	}
	switch p {
	case pidcomm.Broadcast, pidcomm.Scatter, pidcomm.Gather, pidcomm.Reduce:
		d.Root = rng.Intn(clusterHosts)
	}
	if rng.Intn(4) == 0 {
		d.Level = levels[rng.Intn(len(levels))]
	}
	if p == pidcomm.AllReduce {
		switch rng.Intn(4) {
		case 0:
			d.Flat = true
		case 1:
			d.Algorithm = []pidcomm.Algorithm{pidcomm.AlgoRing, pidcomm.AlgoTree}[rng.Intn(2)]
		}
	}
	return entry{kind: cluster, cd: d, bytes: int64(m) * int64(hp)}
}

func (b *compileBench) setUp() error {
	b.genStream()
	// Warm-up: compile and run the stream once, on machines of its own,
	// so the measured passes start from a warm process but cold program
	// caches.
	if _, err := b.run(b.stream, nil, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	b.first = nil
	b.cnt = cacheCounts{}
	return nil
}

func (b *compileBench) pass(i int, tr *tracer, ops *[]float64) error {
	sim, err := b.run(b.stream, tr, ops)
	if err != nil {
		return err
	}
	if b.first == nil {
		b.first = sim
		return nil
	}
	same := sim.clock == b.first.clock && sim.netBusy == b.first.netBusy && sim.counters == b.first.counters &&
		len(sim.opSims) == len(b.first.opSims)
	for k := 0; same && k < len(sim.opSims); k++ {
		same = sim.opSims[k] == b.first.opSims[k]
	}
	if !same {
		return fmt.Errorf("compile: pass %d simulated differently from the first pass", i)
	}
	return nil
}

// run compiles and runs the given stream entries on a fresh machine and
// cluster.
func (b *compileBench) run(stream []int, tr *tracer, ops *[]float64) (*compileSim, error) {
	tr.begin(lPass, -1)
	defer tr.end()
	mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(compileMram), []int{serveGroup, serveGroup}, pidcomm.CostOnly())
	if err != nil {
		return nil, err
	}
	comm, err := mach.Comm()
	if err != nil {
		return nil, err
	}
	clGeo := pidcomm.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: clusterShape, MramPerBank: clusterMram}
	cl, err := pidcomm.NewCluster(clusterHosts, clGeo, []int{clusterShape, clusterShape}, pidcomm.CostOnly())
	if err != nil {
		return nil, err
	}
	sim := &compileSim{}
	seen := map[*pidcomm.CompiledPlan]bool{}
	for k, ei := range stream {
		hostCal.tick()
		e := &b.entries[ei]
		req := int64(k)
		tr.begin(lOp, req)
		var (
			host     float64
			bd, want pidcomm.Breakdown
			lanes    [len(laneNames)]float64
		)
		switch e.kind {
		case cluster:
			s := time.Now()
			cp, err := cl.Compile(e.cd)
			c := time.Now()
			tr.add(lClusterCompile, s, c, req, 0)
			if err != nil {
				tr.end()
				return nil, fmt.Errorf("compile: %s: %w", e, err)
			}
			bd, err = cp.Run()
			r := time.Now()
			tr.add(lClusterRun, c, r, req, e.bytes)
			if err != nil {
				tr.end()
				return nil, fmt.Errorf("compile: run %s: %w", e, err)
			}
			host = r.Sub(s).Seconds()
			want = cp.Cost()
			for h := 0; h < cl.NumHosts(); h++ {
				for l, v := range laneSums(cp.HostPlan(h).LaneSegments()) {
					lanes[l] += v
				}
			}
		default:
			var cp *pidcomm.CompiledPlan
			var ct float64
			if e.kind == sequence {
				cp, ct, err = timedCompile(tr, seen, req, func() (*pidcomm.CompiledPlan, error) { return comm.CompileSequence(e.ds...) })
			} else {
				cp, ct, err = timedCompile(tr, seen, req, func() (*pidcomm.CompiledPlan, error) { return comm.Compile(e.ds[0]) })
			}
			if err != nil {
				tr.end()
				return nil, fmt.Errorf("compile: %s: %w", e, err)
			}
			s := time.Now()
			bd, err = cp.Run()
			r := time.Now()
			tr.add(lExec, s, r, req, e.bytes)
			if err != nil {
				tr.end()
				return nil, fmt.Errorf("compile: run %s: %w", e, err)
			}
			host = ct + r.Sub(s).Seconds()
			want = cp.Cost()
			lanes = laneSums(cp.LaneSegments())
		}
		tr.end()
		if ops != nil {
			*ops = append(*ops, host)
		}
		meter := mach.Breakdown()
		if e.kind == cluster {
			meter = cl.Breakdown()
		}
		b.checks.charge(bd, want, meter, "compile: %s", e)
		sim.clock.charge(bd, lanes)
		sim.opSims = append(sim.opSims, float64(bd.Total()))
	}
	sim.clock.elapsed = float64(mach.Elapsed())
	sim.counters.addMachine(mach)
	for h := 0; h < cl.NumHosts(); h++ {
		hm := cl.Machine(h)
		sim.clock.elapsed += float64(hm.Elapsed())
		sim.netBusy += float64(hm.NetBusy())
		sim.counters.addMachine(hm)
	}
	sort.Float64s(sim.opSims)
	if ops != nil {
		b.cnt.add(sim.counters)
	}
	b.last.mach, b.last.cl = mach, cl
	return sim, b.checks.err()
}

func (b *compileBench) sim() []metric {
	s := b.first
	n := len(s.opSims)
	ms := []metric{
		{name: "slo_p50_ms", unit: "sim_ms", value: percentile(s.opSims, 0.5) * 1e3, n: n,
			note: "every executed plan; serial runs never queue, so sojourn is the plan's cost"},
		{name: "slo_p99_ms", unit: "sim_ms", value: percentile(s.opSims, 0.99) * 1e3, n: n},
		{name: "goodput_rho", unit: "rho", value: s.clock.busy() / s.clock.elapsed, n: n,
			note: "no request carries a deadline: the load the closed loop offered, lane busy over elapsed"},
		{name: "sim_s", unit: "sim_s", value: s.clock.total, n: n},
		{name: "admit.rejected", unit: "count", value: 0, n: 0},
		{name: "sched.wait_p50_ms", unit: "sim_ms", value: 0, n: 0},
		{name: "sched.wait_p99_ms", unit: "sim_ms", value: 0, n: 0},
		{name: "fail_frac", unit: "ratio", value: 0, n: n, note: "any returned error fails the run"},
	}
	ms = append(ms, s.clock.metrics(n)...)
	for i := range ms {
		if ms[i].name == "lane.net.busy_s" {
			ms[i].value, ms[i].note = s.netBusy, "Machine.NetBusy over the cluster hosts"
		}
	}
	return ms
}
