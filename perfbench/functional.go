package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/pidcomm"
)

// The functional workload: the Figure 14 sweep on a functional 32x32
// machine. The eight primitives run at Baseline and at CM over axis 0
// (groups of 32 PEs); plans are compiled once and replayed every sweep.
// Before every execution the inputs are rewritten from a seeded pool
// (PR, IM and CM rotate Src in place, so a replay without the rewrite
// would not compute the collective of the original data), and after it
// every output is checked against the core.Ref* reference
// implementations. Real data movement dominates the host time.

type functionalConfig struct {
	// bytesPerPE is every primitive's per-PE receive payload. The seed
	// moves only the data: with payloads drawn from the seed too, which
	// plan was the median op changed from seed to seed.
	bytesPerPE int
	// poolSlack is how far the input window slides between executions.
	poolSlack int
}

func defaultFunctionalConfig() functionalConfig {
	return functionalConfig{bytesPerPE: 8 << 10, poolSlack: 64 << 10}
}

// functionalWorkers is the exec worker count: one per usable CPU but one,
// at least one. On a 2-vCPU VM, where the run uses one worker, its host
// metrics spread half as much as with two (README, "Steadiness"): a
// parallel region waits for its slower vCPU, and the host's interference
// hits either of them.
func functionalWorkers() int { return max(min(runtime.NumCPU(), runtime.GOMAXPROCS(0))-1, 1) }

// reductions fixes the element type and operator of each reducing
// primitive, for the same reason as the fixed payload: the seed moves
// the data, not the work a sweep does.
var reductions = map[pidcomm.Primitive]struct {
	elem pidcomm.ElemType
	op   pidcomm.ReduceOp
}{
	pidcomm.ReduceScatter: {pidcomm.I32, pidcomm.Sum},
	pidcomm.AllReduce:     {pidcomm.I64, pidcomm.Max},
	pidcomm.Reduce:        {pidcomm.I32, pidcomm.Xor},
}

// fplan is one compiled point of the sweep.
type fplan struct {
	prim  pidcomm.Primitive
	level pidcomm.Level
	m     int // per-PE receive bytes
	elem  pidcomm.ElemType
	op    pidcomm.ReduceOp
	cp    *pidcomm.CompiledPlan
	hosts [][]byte // Scatter/Broadcast payloads, bound by reference
	lanes [len(laneNames)]float64
}

// srcBytes is the per-PE input size the plan reads from MRAM (0 for the
// host-input primitives).
func (p *fplan) srcBytes(g int) int {
	switch p.prim {
	case pidcomm.AllGather:
		return p.m / g
	case pidcomm.Scatter, pidcomm.Broadcast:
		return 0
	}
	return p.m
}

type functionalBench struct {
	seed   int64
	cfg    functionalConfig
	mach   *pidcomm.Machine
	comm   *pidcomm.Comm
	groups [][]int
	plans  []*fplan
	pool   []byte
	round  int // executions so far: selects the input window
	first  []pidcomm.Breakdown
	clock  simClock
	checks checks
}

func newFunctional(seed int64, cfg functionalConfig) *functionalBench {
	return &functionalBench{seed: seed, cfg: cfg}
}

func (b *functionalBench) minPasses() int { return 1 }

// windows: one sweep per throughput and median sample; seven sweeps per
// tail sample, so the tail is p90 with 11 samples beyond it at any host
// speed.
func (b *functionalBench) windows() (rate, tail int) { return len(b.plans), 7 * len(b.plans) }
func (b *functionalBench) passClass(i int) int       { return 0 }
func (b *functionalBench) outputChecks() *checks     { return &b.checks }
func (b *functionalBench) resetCounters()            {}
func (b *functionalBench) counters() []metric        { return (&cacheCounts{}).metrics() }

func (b *functionalBench) setUp() error {
	m := b.cfg.bytesPerPE
	var err error
	b.mach, err = pidcomm.NewMachine(pidcomm.PaperSystem(4*m), []int{serveGroup, serveGroup},
		pidcomm.WithExecWorkers(functionalWorkers()))
	if err != nil {
		return err
	}
	if b.comm, err = b.mach.Comm(); err != nil {
		return err
	}
	if b.groups, err = b.mach.Groups("10"); err != nil {
		return err
	}
	g := len(b.groups[0])
	b.plans = b.plans[:0]
	for p := pidcomm.Primitive(0); p < 8; p++ {
		red := reductions[p]
		var hosts [][]byte
		switch p {
		case pidcomm.Scatter:
			hosts = make([][]byte, len(b.groups))
			for i := range hosts {
				hosts[i] = make([]byte, g*m)
			}
		case pidcomm.Broadcast:
			hosts = make([][]byte, len(b.groups))
			for i := range hosts {
				hosts[i] = make([]byte, m)
			}
		}
		for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
			fp := &fplan{prim: p, level: lvl, m: m, elem: red.elem, op: red.op, hosts: hosts}
			if fp.cp, err = b.comm.Compile(b.descriptor(fp)); err != nil {
				return fmt.Errorf("functional: compile %v at %v: %w", p, lvl, err)
			}
			fp.lanes = laneSums(fp.cp.LaneSegments())
			b.plans = append(b.plans, fp)
		}
	}
	b.pool = make([]byte, b.mach.NumPEs()*m+b.cfg.poolSlack)
	rand.New(rand.NewSource(b.seed*4099 + 3)).Read(b.pool)
	// The first fill and the warm-up: one full sweep.
	b.round = 0
	b.first = nil
	if err := b.sweep(nil, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	b.first, b.clock = nil, simClock{}
	return nil
}

// descriptor builds the sweep point's collective: Src at 0, Dst at 2m.
func (b *functionalBench) descriptor(fp *fplan) pidcomm.Collective {
	g := len(b.groups[0])
	m := fp.m
	d := pidcomm.Collective{Prim: fp.prim, Dims: "10", Level: fp.level}
	if reducing[fp.prim] {
		d.Elem, d.Op = fp.elem, fp.op
	}
	switch fp.prim {
	case pidcomm.AlltoAll, pidcomm.ReduceScatter, pidcomm.AllReduce:
		d.Src, d.Dst = pidcomm.Span(0, m), pidcomm.At(2*m)
	case pidcomm.AllGather:
		d.Src, d.Dst = pidcomm.Span(0, m/g), pidcomm.At(2*m)
	case pidcomm.Scatter, pidcomm.Broadcast:
		d.Dst, d.Hosts = pidcomm.Span(0, m), fp.hosts
	case pidcomm.Gather, pidcomm.Reduce:
		d.Src = pidcomm.Span(0, m)
	}
	return d
}

// window returns execution round r's input slice of n bytes for the
// i-th input (PE or host buffer).
func (b *functionalBench) window(r, i, n int) []byte {
	off := (r * 8 * 7919) % b.cfg.poolSlack
	return b.pool[off+i*n : off+(i+1)*n]
}

func (b *functionalBench) pass(i int, tr *tracer, ops *[]float64) error {
	return b.sweep(tr, ops)
}

// sweep executes every plan once: rewrite the inputs, Run, check.
func (b *functionalBench) sweep(tr *tracer, ops *[]float64) error {
	tr.begin(lPass, -1)
	defer tr.end()
	record := b.first == nil
	if record {
		defer func(e0 pidcomm.Seconds) { b.clock.elapsed = float64(b.mach.Elapsed() - e0) }(b.mach.Elapsed())
	}
	g := len(b.groups[0])
	for _, fp := range b.plans {
		hostCal.tick()
		r := b.round
		b.round++
		req := int64(r)
		tr.begin(lOp, req)
		s := time.Now()
		if n := fp.srcBytes(g); n > 0 {
			for pe := 0; pe < b.mach.NumPEs(); pe++ {
				b.comm.SetPEBuffer(pe, 0, b.window(r, pe, n))
			}
			tr.add(lFill, s, time.Now(), req, 0)
		} else {
			for gi, h := range fp.hosts {
				copy(h, b.window(r, gi, len(h)))
			}
		}
		x := time.Now()
		bd, err := fp.cp.Run()
		e := time.Now()
		tr.add(lExec, x, e, req, int64(fp.m)*int64(b.mach.NumPEs()))
		tr.end()
		if err != nil {
			return fmt.Errorf("functional: %v at %v: %w", fp.prim, fp.level, err)
		}
		if ops != nil {
			*ops = append(*ops, e.Sub(s).Seconds())
		}
		b.checks.charge(bd, fp.cp.Cost(), b.mach.Breakdown(), "functional: %v at %v", fp.prim, fp.level)
		if record {
			b.first = append(b.first, bd)
			b.clock.charge(bd, fp.lanes)
		}
		b.verify(tr, fp, r)
	}
	return b.checks.err()
}

// verify reads back every output of round r's execution of fp and
// checks it against the reference implementation over the inputs
// written before it.
func (b *functionalBench) verify(tr *tracer, fp *fplan, r int) {
	g := len(b.groups[0])
	m := fp.m
	var results [][]byte
	outs := make([][]byte, b.mach.NumPEs())
	switch fp.prim {
	case pidcomm.Gather, pidcomm.Reduce:
		results = fp.cp.Results()
		if !b.checks.ok(len(results) == len(b.groups), "functional: %v at %v returned %d results for %d groups", fp.prim, fp.level, len(results), len(b.groups)) {
			return
		}
	default:
		off, n := 2*m, m
		switch fp.prim {
		case pidcomm.ReduceScatter:
			n = m / g
		case pidcomm.Scatter, pidcomm.Broadcast:
			off = 0
		}
		s := time.Now()
		for pe := range outs {
			outs[pe] = b.comm.GetPEBuffer(pe, off, n)
		}
		tr.add(lRead, s, time.Now(), int64(r), 0)
	}
	for gi, pes := range b.groups {
		in := make([][]byte, len(pes))
		if n := fp.srcBytes(g); n > 0 {
			for i, pe := range pes {
				in[i] = b.window(r, pe, n)
			}
		}
		var want [][]byte // per group member
		switch fp.prim {
		case pidcomm.AlltoAll:
			want = core.RefAlltoAll(in, m/g)
		case pidcomm.ReduceScatter:
			want = core.RefReduceScatter(fp.elem, fp.op, in, m/g)
		case pidcomm.AllReduce:
			want = core.RefAllReduce(fp.elem, fp.op, in)
		case pidcomm.AllGather:
			want = core.RefAllGather(in)
		case pidcomm.Scatter:
			want = core.RefScatter(fp.hosts[gi], g)
		case pidcomm.Broadcast:
			want = core.RefBroadcast(fp.hosts[gi], g)
		case pidcomm.Gather:
			b.checks.ok(bytes.Equal(results[gi], core.RefGather(in)), "functional: %v at %v group %d result differs from the reference", fp.prim, fp.level, gi)
			continue
		case pidcomm.Reduce:
			b.checks.ok(bytes.Equal(results[gi], core.RefReduce(fp.elem, fp.op, in)), "functional: %v at %v group %d result differs from the reference", fp.prim, fp.level, gi)
			continue
		}
		for i, pe := range pes {
			b.checks.ok(bytes.Equal(outs[pe], want[i]), "functional: %v at %v PE %d output differs from the reference", fp.prim, fp.level, pe)
		}
	}
}

func (b *functionalBench) sim() []metric {
	sims := make([]float64, len(b.first))
	for i, bd := range b.first {
		sims[i] = float64(bd.Total())
	}
	sort.Float64s(sims)
	n := len(sims)
	ms := []metric{
		{name: "slo_p50_ms", unit: "sim_ms", value: percentile(sims, 0.5) * 1e3, n: n,
			note: "every executed plan; serial runs never queue, so sojourn is the plan's cost"},
		{name: "slo_p99_ms", unit: "sim_ms", value: percentile(sims, 0.99) * 1e3, n: n},
		{name: "goodput_rho", unit: "rho", value: b.clock.busy() / b.clock.elapsed, n: n,
			note: "no request carries a deadline: the load the closed loop offered, lane busy over elapsed"},
		{name: "sim_s", unit: "sim_s", value: b.clock.total, n: n},
		{name: "admit.rejected", unit: "count", value: 0, n: 0},
		{name: "sched.wait_p50_ms", unit: "sim_ms", value: 0, n: 0},
		{name: "sched.wait_p99_ms", unit: "sim_ms", value: 0, n: 0},
		{name: "fail_frac", unit: "ratio", value: 0, n: n, note: "any returned error fails the run"},
	}
	return append(ms, b.clock.metrics(n)...)
}
