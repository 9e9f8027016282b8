package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/pidcomm"
)

// The serve workload: the chat/feed/batch mix of serve.Scenario on a
// cost-only stepped machine under the lookahead scheduler, open loop in
// simulated time at a ladder of fixed offered loads. The benchmark
// generates the arrivals and drives them itself with the discrete-event
// loop of serve.Run (minus tenant churn), so every admission and every
// scheduler step is a separately timed call.

// serveRhos is the offered-load ladder, ascending; sloPoint indexes the
// load (rho = 0.9) slo_p50_ms and slo_p99_ms are read at.
var serveRhos = []float64{0.75, 0.9, 1.05, 1.2}

const sloPoint = 1

type serveConfig struct {
	// requests is the arrival count each load point is sized for.
	requests int
	// warmup is how many arrivals of the SLO point set-up drives.
	warmup int
}

func defaultServeConfig() serveConfig {
	return serveConfig{requests: 120000, warmup: 4000}
}

// missLimit is the largest share of deadline-carrying requests that may
// miss (or be shed) at a load counted as goodput.
const missLimit = 0.01

// arrival is one generated request arrival.
type arrival struct {
	t      pidcomm.Seconds
	tenant int
}

// servePoint is one offered load of the ladder.
type servePoint struct {
	rho      float64
	spec     serve.Config
	arrivals []arrival
}

// serveSim is the simulated outcome of one pass over one load point.
type serveSim struct {
	requests, shed, missed   int
	sloN, sloMissed, sloShed int
	sojourns                 []float64 // deadline-carrying completed requests, sorted, sim seconds
	waits                    []float64 // placement start - NotBefore per executed plan
	rejected                 int       // SubmitOpts calls shed by admission
	clock                    simClock
}

// equal reports whether two passes over one point simulated the same
// thing, bit for bit.
func (a *serveSim) equal(b *serveSim) bool {
	if a.requests != b.requests || a.shed != b.shed || a.missed != b.missed || a.sloN != b.sloN ||
		a.sloMissed != b.sloMissed || a.sloShed != b.sloShed || a.rejected != b.rejected ||
		a.clock != b.clock || len(a.sojourns) != len(b.sojourns) || len(a.waits) != len(b.waits) {
		return false
	}
	for i := range a.sojourns {
		if a.sojourns[i] != b.sojourns[i] {
			return false
		}
	}
	for i := range a.waits {
		if a.waits[i] != b.waits[i] {
			return false
		}
	}
	return true
}

type serveBench struct {
	seed   int64
	cfg    serveConfig
	points []servePoint
	geo    pidcomm.Geometry
	base   int // base per-PE payload
	arena  int // per-tenant arena bytes
	first  []*serveSim
	cnt    cacheCounts
	checks checks
}

func newServe(seed int64, cfg serveConfig) *serveBench {
	return &serveBench{seed: seed, cfg: cfg}
}

func (b *serveBench) minPasses() int            { return len(serveRhos) }
func (b *serveBench) windows() (rate, tail int) { return 2000, 5000 }
func (b *serveBench) passClass(i int) int       { return i % len(serveRhos) }
func (b *serveBench) outputChecks() *checks     { return &b.checks }
func (b *serveBench) resetCounters()            { b.cnt = cacheCounts{} }
func (b *serveBench) counters() []metric        { return b.cnt.metrics() }

// Machine sizing as in serve.Run's defaults: a 32x32 hypercube, the
// collectives over axis 0, a 4 KiB base payload and four payloads of
// arena per tenant (with one spare arena of MRAM).
const (
	serveGroup = 32
	serveBase  = 4096
)

func (b *serveBench) setUp() error {
	b.base = serveBase
	b.arena = 4 * b.base
	b.points = b.points[:0]
	for _, rho := range serveRhos {
		spec, err := serve.Scenario(pidcomm.SchedLookahead, rho, b.cfg.requests)
		if err != nil {
			return err
		}
		spec.Seed = b.seed
		b.points = append(b.points, servePoint{rho: rho, spec: spec, arrivals: genArrivals(spec)})
	}
	b.geo = pidcomm.PaperSystem((len(b.points[0].spec.Tenants) + 1) * b.arena)
	// Warm-up: drive the head of the SLO point's stream once.
	pt := b.points[sloPoint]
	warm := pt
	warm.arrivals = pt.arrivals[:min(b.cfg.warmup, len(pt.arrivals))]
	var ops []float64
	if _, err := b.drive(&warm, nil, &ops); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	b.first = make([]*serveSim, len(b.points))
	b.cnt = cacheCounts{}
	return nil
}

// genArrivals draws every tenant's arrival process over the scenario's
// horizon from its own seeded generator and merges them in time order
// (ties by tenant index), exactly as serve.Run does.
func genArrivals(cfg serve.Config) []arrival {
	var all []arrival
	for i, sp := range cfg.Tenants {
		rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(i)*7919 + 1))
		burst := sp.Burst
		if burst <= 0 {
			burst = 4
		}
		t := pidcomm.Seconds(0)
		for {
			if sp.Arrivals == serve.Bursty {
				t += pidcomm.Seconds(rng.ExpFloat64() / (sp.Rate / float64(burst)))
				if t >= cfg.Horizon {
					break
				}
				k := 1
				for rng.Float64() > 1.0/float64(burst) {
					k++
				}
				for j := 0; j < k; j++ {
					all = append(all, arrival{t: t, tenant: i})
				}
				continue
			}
			t += pidcomm.Seconds(rng.ExpFloat64() / sp.Rate)
			if t >= cfg.Horizon {
				break
			}
			all = append(all, arrival{t: t, tenant: i})
		}
	}
	sort.SliceStable(all, func(a, c int) bool {
		if all[a].t != all[c].t {
			return all[a].t < all[c].t
		}
		return all[a].tenant < all[c].tenant
	})
	return all
}

// segments returns a serving model's request pipeline over a tenant's
// arena, as serve's models define it: MLP is one AllReduce at a quarter
// payload, GNN an AllGather feeding an AllReduce at half payload, DLRM
// an AlltoAll feeding a ReduceScatter at the full payload.
func segments(model serve.Model, base int) []pidcomm.Collective {
	switch model {
	case serve.GNN:
		mp := base / 2
		s := mp / serveGroup
		return []pidcomm.Collective{
			{Prim: pidcomm.AllGather, Dims: "10", Src: pidcomm.Span(0, s), Dst: pidcomm.At(s), Level: pidcomm.IM},
			{Prim: pidcomm.AllReduce, Dims: "10", Src: pidcomm.Span(s, mp), Dst: pidcomm.At(s + mp),
				Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
		}
	case serve.MLP:
		mp := base / 4
		return []pidcomm.Collective{
			{Prim: pidcomm.AllReduce, Dims: "10", Src: pidcomm.Span(0, mp), Dst: pidcomm.At(mp),
				Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
		}
	}
	mp := base
	return []pidcomm.Collective{
		{Prim: pidcomm.AlltoAll, Dims: "10", Src: pidcomm.Span(0, mp), Dst: pidcomm.At(mp), Level: pidcomm.CM},
		{Prim: pidcomm.ReduceScatter, Dims: "10", Src: pidcomm.Span(mp, mp), Dst: pidcomm.At(2 * mp),
			Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
	}
}

// request is the serving loop's record of one arrival.
type request struct {
	arrival  pidcomm.Seconds
	deadline pidcomm.Seconds
	futs     []*pidcomm.Future
	host     time.Duration // admissions plus the steps that ran its segments
}

// pass drives one load point of the ladder; the first pass over each
// point keeps its simulated outcome and every later one must repeat it.
func (b *serveBench) pass(i int, tr *tracer, ops *[]float64) error {
	k := i % len(b.points)
	sim, err := b.drive(&b.points[k], tr, ops)
	if err != nil {
		return err
	}
	if b.first[k] == nil {
		b.first[k] = sim
	} else if !sim.equal(b.first[k]) {
		return fmt.Errorf("serve: pass %d at rho=%g simulated differently from the first pass at that load", i, b.points[k].rho)
	}
	return nil
}

// drive runs one open-loop pass: a fresh machine and tenants, every
// arrival admitted at its simulated time, the scheduler stepped one pick
// at a time, then every output checked and the tenants torn down.
func (b *serveBench) drive(pt *servePoint, tr *tracer, ops *[]float64) (*serveSim, error) {
	tr.begin(lPass, -1)
	defer tr.end()
	mach, err := pidcomm.NewMachine(b.geo, []int{serveGroup, serveGroup}, pidcomm.CostOnly(),
		pidcomm.WithStepped(true), pidcomm.WithSched(pt.spec.Policy))
	if err != nil {
		return nil, err
	}
	comms := make([]*pidcomm.Comm, len(pt.spec.Tenants))
	plans := make([][]*pidcomm.CompiledPlan, len(pt.spec.Tenants))
	lanes := map[*pidcomm.CompiledPlan][len(laneNames)]float64{}
	seen := map[*pidcomm.CompiledPlan]bool{}
	for ti, sp := range pt.spec.Tenants {
		maxPending := sp.MaxPending
		if maxPending <= 0 {
			maxPending = 64
		}
		comms[ti], err = mach.NewTenant(pidcomm.TenantConfig{Name: sp.Name, ArenaBytes: b.arena,
			Weight: sp.Weight, MaxPending: maxPending, Shed: sp.Shed})
		if err != nil {
			return nil, err
		}
		for _, d := range segments(sp.Model, b.base) {
			c := comms[ti]
			cp, _, err := timedCompile(tr, seen, -1, func() (*pidcomm.CompiledPlan, error) { return c.Compile(d) })
			if err != nil {
				return nil, err
			}
			plans[ti] = append(plans[ti], cp)
			lanes[cp] = laneSums(cp.LaneSegments())
		}
	}

	sim := &serveSim{}
	reqs := make([]request, 0, len(pt.arrivals))
	owner := make(map[*pidcomm.Future]int, len(pt.arrivals)*2)
	arr := pt.arrivals
	clock := pidcomm.Seconds(0)
	next := 0
	for next < len(arr) || mach.Pending() > 0 {
		hostCal.tick()
		if mach.Pending() == 0 && next < len(arr) && arr[next].t > clock {
			clock = arr[next].t
		}
		// Admit every arrival at or before the clock.
		for next < len(arr) && arr[next].t <= clock {
			a := arr[next]
			r := request{arrival: a.t}
			if dl := pt.spec.Tenants[a.tenant].Deadline; dl > 0 {
				r.deadline = a.t + dl
			}
			id := len(reqs)
			for _, cp := range plans[a.tenant] {
				s := time.Now()
				f := cp.SubmitOpts(pidcomm.SubmitOptions{NotBefore: a.t, Deadline: r.deadline})
				e := time.Now()
				r.host += e.Sub(s)
				r.futs = append(r.futs, f)
				if f.Done() && f.Err() != nil {
					sim.rejected++
					tr.add(lAdmit, s, e, int64(id), 1)
					break // drop the request's remaining segments
				}
				tr.add(lAdmit, s, e, int64(id), 0)
				owner[f] = id
			}
			reqs = append(reqs, r)
			next++
		}
		depth := int64(0)
		if tr != nil {
			depth = int64(mach.Pending())
		}
		s := time.Now()
		f := mach.Step()
		e := time.Now()
		if f == nil {
			tr.add(lSched, s, e, -1, depth)
			if mach.Pending() > 0 {
				return nil, fmt.Errorf("serve: scheduler stalled with %d plans pending", mach.Pending())
			}
			if next < len(arr) {
				clock = arr[next].t
			}
			continue
		}
		id, ok := owner[f]
		if !b.checks.ok(ok, "serve: Step returned a future the benchmark never submitted") {
			continue
		}
		reqs[id].host += e.Sub(s)
		tr.add(lSched, s, e, int64(id), depth)
		start, _ := f.Window()
		b.checks.charge(f.Cost(), f.Plan().Cost(), mach.Breakdown(), "serve: request %d segment", id)
		sim.clock.charge(f.Cost(), lanes[f.Plan()])
		sim.waits = append(sim.waits, float64(start-f.NotBefore()))
		if start > clock {
			clock = start
		}
	}
	mach.Flush()
	elapsed := mach.Elapsed()
	sim.clock.elapsed = float64(elapsed)

	for id := range reqs {
		r := &reqs[id]
		*ops = append(*ops, r.host.Seconds())
		shed := false
		var end pidcomm.Seconds
		for _, f := range r.futs {
			if !b.checks.ok(f.Done(), "serve: request %d at %v never completed", id, r.arrival) {
				continue
			}
			if err := f.Err(); err != nil {
				b.checks.ok(errors.Is(err, pidcomm.ErrOverloaded), "serve: request %d failed: %v", id, err)
				shed = true
				continue
			}
			s, e := f.Window()
			b.checks.ok(f.NotBefore() <= s && s <= e && e <= elapsed,
				"serve: request %d window [%v,%v] breaks NotBefore %v <= start <= end <= elapsed %v", id, s, e, f.NotBefore(), elapsed)
			end = max(end, e)
		}
		sim.requests++
		if r.deadline > 0 {
			sim.sloN++
		}
		switch {
		case shed:
			sim.shed++
			if r.deadline > 0 {
				sim.sloShed++
			}
		case r.deadline > 0:
			sim.sojourns = append(sim.sojourns, float64(end-r.arrival))
			if end > r.deadline {
				sim.missed++
				sim.sloMissed++
			}
		}
	}
	sort.Float64s(sim.sojourns)
	sort.Float64s(sim.waits)

	b.cnt.addMachine(mach)
	for _, c := range comms {
		if err := mach.CloseTenant(c); err != nil {
			return nil, err
		}
	}
	spans := mach.FreeArenaSpans()
	b.checks.ok(len(spans) == 1 && spans[0].Base == 0 && spans[0].Bytes == mach.MramPerBank(),
		"serve: free spans after closing every tenant are %v, want one span over all %d bytes", spans, mach.MramPerBank())
	return sim, b.checks.err()
}

// goodput returns the highest offered load at which at most missLimit
// of the deadline-carrying requests miss or are shed, interpolated
// linearly in the miss share between the ladder points that bracket the
// limit. A ladder that never crosses the limit reports its top point.
func goodput(rhos, miss []float64) float64 {
	hi := -1 // highest passing point whose successor fails (or the top)
	for i := len(rhos) - 1; i >= 0; i-- {
		if miss[i] <= missLimit {
			hi = i
			break
		}
	}
	switch {
	case hi < 0:
		// Even the lowest point fails: interpolate from an idle machine.
		return rhos[0] * missLimit / miss[0]
	case hi == len(rhos)-1:
		return rhos[hi]
	}
	return rhos[hi] + (rhos[hi+1]-rhos[hi])*(missLimit-miss[hi])/(miss[hi+1]-miss[hi])
}

func (b *serveBench) sim() []metric {
	var (
		clock                        simClock
		waits                        []float64
		requests, failed, rejections int
		miss                         = make([]float64, len(b.first))
	)
	for i, s := range b.first {
		clock.add(s.clock)
		waits = append(waits, s.waits...)
		requests += s.requests
		failed += s.shed + s.missed
		rejections += s.rejected
		miss[i] = float64(s.sloMissed+s.sloShed) / float64(max(s.sloN, 1))
	}
	sort.Float64s(waits)
	slo := b.first[sloPoint]
	notes := ""
	for i, r := range serveRhos {
		notes += fmt.Sprintf(" rho=%g:%.4f", r, miss[i])
	}
	ms := []metric{
		{name: "slo_p50_ms", unit: "sim_ms", value: percentile(slo.sojourns, 0.5) * 1e3, n: len(slo.sojourns),
			note: fmt.Sprintf("deadline-carrying requests at rho=%g", serveRhos[sloPoint])},
		{name: "slo_p99_ms", unit: "sim_ms", value: percentile(slo.sojourns, 0.99) * 1e3, n: len(slo.sojourns),
			note: fmt.Sprintf("%d missed, %d shed", slo.sloMissed, slo.sloShed)},
		{name: "goodput_rho", unit: "rho", value: goodput(serveRhos, miss), n: len(miss),
			note: "miss share by load:" + notes},
		{name: "sim_s", unit: "sim_s", value: clock.total, n: len(waits)},
		{name: "admit.rejected", unit: "count", value: float64(rejections), n: requests},
		{name: "sched.wait_p50_ms", unit: "sim_ms", value: percentile(waits, 0.5) * 1e3, n: len(waits)},
		{name: "sched.wait_p99_ms", unit: "sim_ms", value: percentile(waits, 0.99) * 1e3, n: len(waits)},
		{name: "fail_frac", unit: "ratio", value: float64(failed) / float64(max(requests, 1)), n: requests,
			note: "shed plus deadline-missing requests over all load points"},
	}
	return append(ms, clock.metrics(len(waits))...)
}
