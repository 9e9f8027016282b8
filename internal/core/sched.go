package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cost"
)

// This file is the scheduler seam of the submission queue: a process-wide
// registry maps SchedPolicy values to Scheduler implementations, exactly
// as the algorithm registry (algorithm.go) maps Algorithm values to
// schedule-IR producers. pickLocked (async.go) is the single funnel: it
// enumerates the hazard-free candidates near every bucket's head, hands
// them to the active policy's Pick, and performs the shared bookkeeping
// (queue removal, weighted-fair virtual-time advance). A policy therefore
// only decides *who runs next among independent plans* — hazard ordering,
// fairness accounting and byte-level results are funnel invariants no
// policy can break.
//
// Four policies are built in: FIFO (global submission order), WFQ
// (weighted fair across buckets, the default), EDF (earliest deadline
// among windowed candidates) and Lookahead (makespan-aware list
// scheduling: dry-place each candidate's charge trace on a projection
// timeline and serve the one minimizing the projected makespan, under a
// WFQ virtual-time starvation bound).

// DefaultLookahead is the default candidate window: how deep into each
// bucket the window-scanning policies (EDF, Lookahead) consider plans.
// Deep scanning is pointless — a plan can only jump ahead of queue-mates
// it does not conflict with, and consecutive plans of one tenant usually
// reuse the same arena regions — so a small window keeps the pick
// O(buckets x window) under deep backlogs. Configurable per Comm with
// SetLookahead.
const DefaultLookahead = 32

// Candidate is one hazard-free queued plan offered to a Scheduler's Pick:
// no earlier-submitted plan still queued anywhere conflicts with it, so
// serving it next cannot reorder a data dependence.
type Candidate struct {
	// F is the queued future.
	F *Future
	// Head reports whether the plan sits at its bucket's head (bucket
	// order is FIFO; a non-head candidate jumps queue-mates it does not
	// conflict with).
	Head bool
	// VTime and Weight are the owning bucket's weighted-fair virtual
	// time and service weight at pick time.
	VTime  float64
	Weight float64

	q   *subQueue // owning bucket, for the funnel's removal bookkeeping
	idx int       // position within q.q
}

// Scheduler picks the next plan to serve among independent candidates.
// Implementations are registered with RegisterScheduler and instantiated
// per Comm (a Scheduler may keep state across picks — the lookahead
// policy keeps a projection timeline). Calls are serialized under the
// Comm's submission lock; implementations need no locking of their own.
type Scheduler interface {
	// Name is the parseable policy name as printed by SchedPolicy.String.
	Name() string
	// Window bounds how deep into each bucket the funnel enumerates
	// candidates, given the Comm's configured lookahead (Comm.Lookahead).
	// Head-only policies return 1.
	Window(lookahead int) int
	// Pick returns the index into cands of the plan to serve next.
	// cands is never empty, is ordered by bucket then queue position,
	// and contains only hazard-free plans. Pick must not retain cands —
	// the backing array is reused across picks.
	Pick(cands []Candidate) int
}

// SchedSpec registers one submission scheduling policy.
type SchedSpec struct {
	// Policy is the enum value the policy resolves from.
	Policy SchedPolicy
	// Name is the parseable policy name ("wfq", "edf", ...).
	Name string
	// Desc is a one-line description for registry tables (pidinfo -sched).
	Desc string
	// New creates a fresh instance; called lazily per Comm on first pick
	// under the policy (and again after a policy switch).
	New func() Scheduler
}

// The process-wide scheduling-policy registry. The built-ins register in
// an init function below; external packages may add policies the same
// way the algorithm registry accepts lowerings.
var (
	schedMu    sync.RWMutex
	schedReg   = map[SchedPolicy]SchedSpec{}
	schedNames = map[string]SchedPolicy{}
)

// RegisterScheduler adds a scheduling policy to the registry. It panics
// on an invalid spec or a duplicate value or name — registration is an
// init-time programming act, not a runtime input.
func RegisterScheduler(sp SchedSpec) {
	if sp.New == nil {
		panic("core: RegisterScheduler with nil New")
	}
	if sp.Name == "" {
		panic("core: RegisterScheduler with empty Name")
	}
	schedMu.Lock()
	defer schedMu.Unlock()
	if _, dup := schedReg[sp.Policy]; dup {
		panic(fmt.Sprintf("core: duplicate scheduling policy %d", int(sp.Policy)))
	}
	if _, dup := schedNames[sp.Name]; dup {
		panic(fmt.Sprintf("core: duplicate scheduling policy name %q", sp.Name))
	}
	schedReg[sp.Policy] = sp
	schedNames[sp.Name] = sp.Policy
}

// SchedPolicies returns the registered policy values in ascending value
// order (deterministic regardless of registration order).
func SchedPolicies() []SchedPolicy {
	schedMu.RLock()
	defer schedMu.RUnlock()
	out := make([]SchedPolicy, 0, len(schedReg))
	for p := range schedReg {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SchedSpecs returns the registered policy specs in ascending value
// order — the registry table pidinfo -sched prints.
func SchedSpecs() []SchedSpec {
	schedMu.RLock()
	defer schedMu.RUnlock()
	out := make([]SchedSpec, 0, len(schedReg))
	for _, sp := range schedReg {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Policy < out[j].Policy })
	return out
}

// ParseSchedPolicy parses a scheduling policy name as printed by
// SchedPolicy.String ("wfq", "edf", "fifo", "lookahead", plus any
// externally registered names).
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	schedMu.RLock()
	p, ok := schedNames[s]
	schedMu.RUnlock()
	if !ok {
		names := make([]string, 0, len(schedReg))
		for _, sp := range SchedSpecs() {
			names = append(names, sp.Name)
		}
		return 0, fmt.Errorf("core: unknown scheduling policy %q (want one of %v)", s, names)
	}
	return p, nil
}

// String names the policy for tables and diagnostics, consulting the
// registry so externally registered policies print their own names.
func (p SchedPolicy) String() string {
	schedMu.RLock()
	sp, ok := schedReg[p]
	schedMu.RUnlock()
	if ok {
		return sp.Name
	}
	return fmt.Sprintf("SchedPolicy(%d)", int(p))
}

// schedSpecOf looks up a registered policy.
func schedSpecOf(p SchedPolicy) (SchedSpec, bool) {
	schedMu.RLock()
	defer schedMu.RUnlock()
	sp, ok := schedReg[p]
	return sp, ok
}

func init() {
	RegisterScheduler(SchedSpec{
		Policy: SchedWFQ, Name: "wfq",
		Desc: "weighted fair across buckets (smallest virtual time; default)",
		New:  func() Scheduler { return wfqSched{} },
	})
	RegisterScheduler(SchedSpec{
		Policy: SchedEDF, Name: "edf",
		Desc: "earliest deadline first among windowed hazard-free candidates",
		New:  func() Scheduler { return edfSched{} },
	})
	RegisterScheduler(SchedSpec{
		Policy: SchedFIFO, Name: "fifo",
		Desc: "global submission order (the pre-tenancy queue)",
		New:  func() Scheduler { return fifoSched{} },
	})
	RegisterScheduler(SchedSpec{
		Policy: SchedLookahead, Name: "lookahead",
		Desc: "makespan-aware reordering by dry-placed projection (WFQ-bounded)",
		New:  func() Scheduler { return &lookaheadSched{} },
	})
}

// fifoSched serves the globally oldest queued plan: plain submission
// order across all buckets, the pre-tenancy behavior. Head-only — a
// FIFO pick never jumps a queue-mate.
type fifoSched struct{}

func (fifoSched) Name() string   { return "fifo" }
func (fifoSched) Window(int) int { return 1 }
func (fifoSched) Pick(cands []Candidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].F.seq < cands[best].F.seq {
			best = i
		}
	}
	return best
}

// wfqSched is start-time weighted fair queuing: serve the backlogged
// bucket with the smallest virtual time. Head-only (FIFO within a
// bucket); the strict < with candidates in bucket order breaks ties
// toward the earliest-created bucket, so a fresh Comm degenerates to
// plain FIFO.
type wfqSched struct{}

func (wfqSched) Name() string   { return "wfq" }
func (wfqSched) Window(int) int { return 1 }
func (wfqSched) Pick(cands []Candidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].VTime < cands[best].VTime {
			best = i
		}
	}
	return best
}

// edfSched is earliest-deadline-first over the full candidate window:
// among every bucket's hazard-free candidates, serve the earliest
// deadline (a deadline beats none; ties fall back to submission order —
// see edfLess). Bucket virtual times still advance in the funnel, so a
// later switch back to SchedWFQ resumes fair.
type edfSched struct{}

func (edfSched) Name() string     { return "edf" }
func (edfSched) Window(k int) int { return k }
func (edfSched) Pick(cands []Candidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if edfLess(cands[i].F, cands[best].F) {
			best = i
		}
	}
	return best
}

// lookaheadSlack bounds starvation under the lookahead policy, in units
// of the largest candidate's weighted share: a candidate whose bucket
// virtual time has fallen more than lookaheadSlack shares behind the
// least-served candidate bucket excludes all fresher buckets from the
// pick, so a bucket the makespan greedy never favors is still served
// within a bounded number of picks (see TestLookaheadStarvationBound).
const lookaheadSlack = 8

// lookaheadCheckpoint bounds the projection timeline: every this many
// bookings the projection's pruning floor advances to its makespan,
// dropping interval history the first-fit search would otherwise scan
// forever. Projection placements after a checkpoint no longer backfill
// gaps before it — acceptable for a scoring heuristic.
const lookaheadCheckpoint = 128

// lookaheadSched is the makespan-aware list scheduler. It keeps a
// private projection cost.Timeline of the plans it has served so far
// and, at each pick, scores every eligible candidate by dry-placing its
// cached charge trace first — followed by all other candidates — on a
// copy of the projection; the candidate minimizing the projected
// makespan wins (ties fall to edfLess, so deadlines still order equal-
// makespan picks — the EDF x lookahead composition internal/serve runs).
// Scoring is joint, not greedy-single: placing the remaining candidates
// too is what makes the scheduler prefer the plan whose lanes the others
// hide under, rather than simply the cheapest plan.
//
// The copy is one reused scratch timeline (Timeline.CopyFrom), so a
// warmed pick allocates nothing. Scoring is bounded: a candidate's dry
// placement stops as soon as its partial makespan strictly exceeds the
// best score so far, since the makespan never decreases under further
// placements and that candidate can no longer win or tie. Equal scores
// run to completion, so the edfLess tie-break sees exactly the scores an
// unbounded scoring would.
//
// The projection deliberately approximates the Comm's real timeline (it
// starts plans at their arrival time, not at the hazard frontier): it
// exists to *rank* candidate orders, and drift affects all candidates of
// a pick equally. Results stay bit-identical to serial execution because
// the funnel only ever offers hazard-free candidates.
type lookaheadSched struct {
	proj    cost.Timeline
	scratch cost.Timeline // reused per-candidate copy of proj
	booked  int
	elig    []int // scratch: indices of starvation-eligible candidates
}

func (s *lookaheadSched) Name() string     { return "lookahead" }
func (s *lookaheadSched) Window(k int) int { return k }

func (s *lookaheadSched) Pick(cands []Candidate) int {
	best := 0
	if len(cands) > 1 {
		best = s.pickBest(cands)
	}
	s.book(cands[best].F)
	return best
}

func (s *lookaheadSched) pickBest(cands []Candidate) int {
	// Starvation bound: restrict the pick to candidates whose bucket
	// virtual time is within lookaheadSlack weighted shares of the
	// least-served candidate bucket. The filter is never empty — the
	// vmin candidate always passes it.
	vmin := math.Inf(1)
	maxShare := 0.0
	for _, cd := range cands {
		if cd.VTime < vmin {
			vmin = cd.VTime
		}
		if sh := float64(cd.F.cp.tr.total.Total()) / cd.Weight; sh > maxShare {
			maxShare = sh
		}
	}
	s.elig = s.elig[:0]
	for i, cd := range cands {
		if cd.VTime <= vmin+lookaheadSlack*maxShare {
			s.elig = append(s.elig, i)
		}
	}
	best := -1
	bestFinish := cost.Seconds(math.Inf(1))
	for _, i := range s.elig {
		fin, ok := s.score(cands, i, bestFinish)
		if !ok {
			continue
		}
		if best < 0 || fin < bestFinish ||
			(fin == bestFinish && edfLess(cands[i].F, cands[best].F)) {
			best, bestFinish = i, fin
		}
	}
	return best
}

// score dry-places candidate i first, then every other candidate in
// offer order, on a copy of the projection and returns the resulting
// makespan. It gives up (ok false) as soon as the partial makespan
// exceeds bound. The hypothetical order is hazard-valid: candidates are
// pairwise independent (each conflicts with no earlier queued plan, and
// they are all queued).
func (s *lookaheadSched) score(cands []Candidate, i int, bound cost.Seconds) (fin cost.Seconds, ok bool) {
	tl := &s.scratch
	tl.CopyFrom(&s.proj)
	if tl.Place(cands[i].F.notBefore, cands[i].F.cp.tr.segs); tl.Elapsed() > bound {
		return 0, false
	}
	for j, cd := range cands {
		if j == i {
			continue
		}
		if tl.Place(cd.F.notBefore, cd.F.cp.tr.segs); tl.Elapsed() > bound {
			return 0, false
		}
	}
	return tl.Elapsed(), true
}

// book commits the served plan to the projection.
func (s *lookaheadSched) book(f *Future) {
	s.proj.Place(f.notBefore, f.cp.tr.segs)
	if s.booked++; s.booked%lookaheadCheckpoint == 0 {
		s.proj.SetFloor(s.proj.Elapsed())
	}
}
