package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cost"
	"repro/pidcomm"
)

// laneNames are the simulated timeline's lanes in cost.Lane order.
var laneNames = [...]string{"cpu", "bus", "pe", "net"}

// laneSums folds a plan's lane segments into per-lane busy seconds.
func laneSums(segs []cost.Segment) [len(laneNames)]float64 {
	var out [len(laneNames)]float64
	for _, s := range segs {
		out[s.Lane] += float64(s.Dur)
	}
	return out
}

func init() {
	if len(cost.Categories()) != len(simClock{}.cats) {
		panic(fmt.Sprintf("perfbench: the cost model has %d categories, simClock holds %d", len(cost.Categories()), len(simClock{}.cats)))
	}
}

// simClock accumulates the simulated machine's view of a pass: the
// per-category cost of every executed plan (the Figure 17 view), the
// per-lane busy time of their segments and the machines' elapsed time.
// Folded in execution order, so equal passes give equal sums bit for
// bit.
type simClock struct {
	cats    [8]float64
	lanes   [len(laneNames)]float64
	total   float64
	elapsed float64
}

func (s *simClock) charge(bd pidcomm.Breakdown, lanes [len(laneNames)]float64) {
	for i, c := range cost.Categories() {
		s.cats[i] += float64(bd.Get(c))
	}
	for l, v := range lanes {
		s.lanes[l] += v
	}
	s.total += float64(bd.Total())
}

func (s *simClock) add(o simClock) {
	for i := range s.cats {
		s.cats[i] += o.cats[i]
	}
	for l := range s.lanes {
		s.lanes[l] += o.lanes[l]
	}
	s.total += o.total
	s.elapsed += o.elapsed
}

// busy is the summed lane busy time.
func (s simClock) busy() float64 {
	var b float64
	for _, v := range s.lanes {
		b += v
	}
	return b
}

// metrics reports the lane and category view.
func (s simClock) metrics(n int) []metric {
	var ms []metric
	for l, name := range laneNames {
		ms = append(ms, metric{name: "lane." + name + ".busy_s", unit: "sim_s", value: s.lanes[l], n: n})
	}
	for l, name := range laneNames {
		u := 0.0
		if s.elapsed > 0 {
			u = s.lanes[l] / s.elapsed
		}
		ms = append(ms, metric{name: "lane." + name + ".util", unit: "ratio", value: u, n: n,
			note: fmt.Sprintf("busy over %.6g sim s elapsed", s.elapsed)})
	}
	for i, c := range cost.Categories() {
		ms = append(ms, metric{name: "cat." + c.String() + "_s", unit: "sim_s", value: s.cats[i], n: n})
	}
	return ms
}

// checks counts output checks and keeps the first failure. inexact
// counts runs whose breakdown matched the plan's predicted cost only to
// within the rounding of the meter subtraction (see charge).
type checks struct {
	n, failed, inexact int
	first              error
}

// ok records one check; on failure it formats the message.
func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.n++
	if !cond {
		c.failed++
		if c.first == nil {
			c.first = fmt.Errorf(format, args...)
		}
	}
	return cond
}

// chargeTol is the relative tolerance, against the machine meter's
// running total, within which a run's breakdown may differ from its
// plan's predicted cost. It bounds the rounding of after - before over a
// cumulative meter; the smallest charge the cost model makes is about
// six orders of magnitude above it at the meter totals the workloads
// reach.
const chargeTol = 1e-10

// charge checks that a run charged what its plan predicts. Run and
// Future.Cost report the difference of the machine's cumulative meter
// around the run, which can differ from the predicted per-run sum in the
// last bits once the meter is non-zero: such a run counts as inexact; a
// larger difference fails the check.
func (c *checks) charge(got, want, meter pidcomm.Breakdown, format string, args ...any) {
	if got == want {
		c.ok(true, "")
		return
	}
	within := true
	for _, cat := range cost.Categories() {
		d := math.Abs(float64(got.Get(cat) - want.Get(cat)))
		within = within && d <= chargeTol*math.Abs(float64(meter.Get(cat)))
	}
	if within {
		c.inexact++
	}
	c.ok(within, format+" ran for %v, its plan predicts %v", append(args, got, want)...)
}

// err returns the first failure, with the failure count.
func (c *checks) err() error {
	if c.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d output checks failed; first: %w", c.failed, c.n, c.first)
}

// cacheCounts sums the program's plan-cache, fusion and Auto counters
// over the machines of the passes since the last reset.
type cacheCounts struct {
	planHits, planMisses, traceHits, traceMisses uint64
	plansCompiled, plansFused, autoDecisions     int
}

func (c *cacheCounts) addMachine(m *pidcomm.Machine) {
	st := m.PlanCacheStats()
	c.planHits += st.PlanHits
	c.planMisses += st.PlanMisses
	c.traceHits += st.TraceHits
	c.traceMisses += st.TraceMisses
	fs := m.FusionStats()
	c.plansCompiled += fs.PlansCompiled
	c.plansFused += fs.PlansFused
	c.autoDecisions += len(m.AutoDecisions())
}

func (c *cacheCounts) add(o cacheCounts) {
	c.planHits += o.planHits
	c.planMisses += o.planMisses
	c.traceHits += o.traceHits
	c.traceMisses += o.traceMisses
	c.plansCompiled += o.plansCompiled
	c.plansFused += o.plansFused
	c.autoDecisions += o.autoDecisions
}

func (c cacheCounts) metrics() []metric {
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	fused := 0.0
	if c.plansCompiled > 0 {
		fused = float64(c.plansFused) / float64(c.plansCompiled)
	}
	return []metric{
		{name: "compile.plan_hit_ratio", unit: "ratio", value: ratio(c.planHits, c.planMisses), n: int(c.planHits + c.planMisses)},
		{name: "compile.trace_hit_ratio", unit: "ratio", value: ratio(c.traceHits, c.traceMisses), n: int(c.traceHits + c.traceMisses)},
		{name: "compile.fused_ratio", unit: "ratio", value: fused, n: c.plansCompiled},
		{name: "compile.auto_decisions", unit: "count", value: float64(c.autoDecisions), n: c.autoDecisions},
	}
}

// timedCompile calls compile and records the call. A plan-cache hit
// returns the plan an earlier call on the same machine returned, and a
// miss a new one, so traced runs classify the call by whether seen, the
// plans this machine has returned, already holds it.
func timedCompile(tr *tracer, seen map[*pidcomm.CompiledPlan]bool, req int64, compile func() (*pidcomm.CompiledPlan, error)) (*pidcomm.CompiledPlan, float64, error) {
	s := time.Now()
	cp, err := compile()
	e := time.Now()
	if tr != nil {
		arg := int64(0)
		if seen[cp] {
			arg = 1
		}
		seen[cp] = true
		tr.add(lCompile, s, e, req, arg)
	}
	return cp, e.Sub(s).Seconds(), err
}
