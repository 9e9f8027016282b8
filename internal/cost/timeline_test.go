package cost

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestLaneOf(t *testing.T) {
	want := map[Category]Lane{
		DomainTransfer: LaneCPU,
		HostMod:        LaneCPU,
		HostMem:        LaneCPU,
		Other:          LaneCPU,
		PEMem:          LaneBus,
		Network:        LaneNet,
		PEMod:          LanePE,
		Kernel:         LanePE,
	}
	for _, c := range Categories() {
		if got := LaneOf(c); got != want[c] {
			t.Errorf("LaneOf(%v) = %v, want %v", c, got, want[c])
		}
	}
}

func TestSegmentsOfCoalesces(t *testing.T) {
	adds := []TraceEntry{
		{PEMod, 1}, {Other, 2}, {HostMod, 3}, {PEMem, 4}, {Network, 5}, {Kernel, 0}, {Kernel, 6},
	}
	segs := SegmentsOf(adds)
	want := []Segment{{LanePE, 1}, {LaneCPU, 5}, {LaneBus, 4}, {LaneNet, 5}, {LanePE, 6}}
	if len(segs) != len(want) {
		t.Fatalf("got %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d: got %v, want %v", i, segs[i], want[i])
		}
	}
}

// Two independent plans of shape [PE p][Bus b][PE p] overlap: the second
// plan's leading PE segment backfills the gap under the first plan's bus
// epoch.
func TestTimelineOverlapsIndependentPlans(t *testing.T) {
	plan := []Segment{{LanePE, 1}, {LaneBus, 4}, {LanePE, 1}}
	var tl Timeline
	s1, f1 := tl.Place(0, plan)
	if s1 != 0 || f1 != 6 {
		t.Fatalf("first plan: [%v,%v), want [0,6)", s1, f1)
	}
	s2, f2 := tl.Place(0, plan)
	// PE lead-in backfills at t=1, bus queues behind the first epoch.
	if s2 != 1 {
		t.Errorf("second plan start = %v, want 1 (backfilled under first bus epoch)", s2)
	}
	if f2 >= 12 {
		t.Errorf("second plan finish = %v, want < 12 (serial)", f2)
	}
	if tl.Elapsed() != f2 {
		t.Errorf("Elapsed = %v, want %v", tl.Elapsed(), f2)
	}
}

func TestTimelineSerialIsSum(t *testing.T) {
	plan := []Segment{{LanePE, 1}, {LaneBus, 4}, {LaneCPU, 2}}
	var tl Timeline
	tl.PlaceSerial(plan)
	tl.PlaceSerial(plan)
	if got, want := tl.Elapsed(), Seconds(14); got != want {
		t.Fatalf("serial elapsed = %v, want %v", got, want)
	}
}

// Async placement never exceeds serial placement, and a later earliest
// bound is respected.
func TestTimelinePlaceNeverExceedsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var plans [][]Segment
		var serialTotal Seconds
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			var p []Segment
			for s := 0; s < 1+rng.Intn(5); s++ {
				seg := Segment{Lane(rng.Intn(int(NumLanes))), Seconds(rng.Float64() * 3)}
				p = append(p, seg)
				serialTotal += seg.Dur
			}
			plans = append(plans, p)
		}
		var tl Timeline
		for _, p := range plans {
			if _, f := tl.Place(0, p); f > serialTotal+1e-12 {
				t.Fatalf("trial %d: finish %v exceeds serial total %v", trial, f, serialTotal)
			}
		}
		if tl.Elapsed() > serialTotal+1e-12 {
			t.Fatalf("trial %d: makespan %v exceeds serial total %v", trial, tl.Elapsed(), serialTotal)
		}
	}
}

// CopyFrom must deep-copy the live per-lane interval sets: placements on
// the copy (whose insert-shift mutates the backing arrays) must not leak
// into the original, and vice versa — the contract the lookahead
// scheduler's scoring relies on.
func TestTimelineCopyFromIsIndependent(t *testing.T) {
	var tl Timeline
	tl.Place(0, []Segment{{LanePE, 1}, {LaneBus, 4}, {LanePE, 1}})
	before := tl.Elapsed()

	var cl Timeline
	cl.CopyFrom(&tl)
	if cl.Elapsed() != before {
		t.Fatalf("copy elapsed %v, want %v", cl.Elapsed(), before)
	}
	// Backfill a gap on the copy: insert-shifts the busy sets.
	cl.Place(0, []Segment{{LanePE, 1}, {LaneBus, 4}, {LanePE, 1}})
	cl.Place(0, []Segment{{LaneCPU, 2}, {LaneBus, 1}})
	if tl.Elapsed() != before {
		t.Errorf("placing on the copy moved the original: %v, want %v", tl.Elapsed(), before)
	}
	after := cl.Elapsed()
	s, f := tl.Place(0, []Segment{{LaneCPU, 1}, {LaneBus, 2}})
	if cl.Elapsed() != after {
		t.Errorf("placing on the original moved the copy: %v, want %v", cl.Elapsed(), after)
	}
	// The original still backfills its own gaps as if never copied: the
	// CPU lead-in lands at t=0 and the bus segment queues behind the
	// original's lone bus epoch [1,5).
	if s != 0 || f != 7 {
		t.Errorf("original placement [%v,%v), want [0,7)", s, f)
	}
}

// CopyFrom into a destination whose buffers already hold a longer, busier
// history must overwrite it completely (no stale intervals, floor, totals
// or head offsets survive) while still reusing the buffers and staying
// independent of the source. The source carries a pruned dead prefix, so
// only its live intervals may be copied.
func TestTimelineCopyFromReusesDestination(t *testing.T) {
	var dst Timeline
	for i := 0; i < 64; i++ {
		dst.Place(Seconds(3*i), []Segment{{LaneBus, 1}, {LanePE, 1}, {LaneCPU, 1}})
	}
	dst.SetFloor(20) // leave dst with head offsets of its own

	var src Timeline
	for i := 0; i < 10; i++ {
		src.Place(Seconds(2*i), []Segment{{LaneBus, 1}})
	}
	src.SetFloor(7) // prunes [0,1) .. [6,7): a dead prefix under the head

	var want Timeline // a fresh reference copy built without reuse
	want.CopyFrom(&src)
	busBuf := &dst.busy[LaneBus][:1][0]
	dst.CopyFrom(&src)
	if &dst.busy[LaneBus][:1][0] != busBuf {
		t.Errorf("CopyFrom reallocated a buffer large enough to reuse")
	}
	for l := Lane(0); l < NumLanes; l++ {
		if dst.LaneBusy(l) != src.LaneBusy(l) {
			t.Errorf("lane %v busy %v, want %v", l, dst.LaneBusy(l), src.LaneBusy(l))
		}
	}
	// Identical placements on dst, a fresh copy and the source agree: a
	// stale interval or floor left in dst would move one of them.
	probes := [][]Segment{{{LanePE, 5}}, {{LaneBus, 1}}, {{LaneBus, 1}, {LaneCPU, 2}}, {{LaneBus, 3}}}
	for _, p := range probes {
		s1, f1 := dst.Place(0, p)
		s2, f2 := want.Place(0, p)
		if s1 != s2 || f1 != f2 || dst.Elapsed() != want.Elapsed() {
			t.Fatalf("reused copy placed %v at [%v,%v), fresh copy at [%v,%v)", p, s1, f1, s2, f2)
		}
	}
	// The bus probe backfilled the gap [9,10) on dst; the source must not
	// see it, and the source's own first-fit must still find that gap.
	if s, _ := src.Place(0, []Segment{{LaneBus, 1}}); s != 7 {
		t.Errorf("source placement at %v after copies were placed on, want 7", s)
	}
}

func TestTimelineEarliestBound(t *testing.T) {
	var tl Timeline
	tl.Place(0, []Segment{{LaneBus, 5}})
	s, _ := tl.Place(7, []Segment{{LanePE, 1}})
	if s != 7 {
		t.Fatalf("start = %v, want 7 (earliest bound)", s)
	}
	tl.Reset()
	if tl.Elapsed() != 0 {
		t.Fatalf("Reset did not clear the timeline")
	}
}

// refTimeline is the timeline as it was before placement binary-searched
// and pruning kept head offsets: a linear first-fit scan from index 0 and
// a SetFloor that memmoves the live intervals down on every call. The
// differential test holds Timeline to it bit for bit.
type refTimeline struct {
	busy  [NumLanes][]interval
	total [NumLanes]Seconds
	end   Seconds
	floor Seconds
}

func (tl *refTimeline) SetFloor(f Seconds) {
	if f <= tl.floor {
		return
	}
	tl.floor = f
	for l := range tl.busy {
		ivs := tl.busy[l]
		i := 0
		for i < len(ivs) && ivs[i].end <= f {
			i++
		}
		if i > 0 {
			tl.busy[l] = append(ivs[:0], ivs[i:]...)
		}
	}
}

func (tl *refTimeline) Place(earliest Seconds, segs []Segment) (start, finish Seconds) {
	cursor := earliest
	if cursor < tl.floor {
		cursor = tl.floor
	}
	start = cursor
	first := true
	for _, s := range segs {
		if s.Dur <= 0 {
			continue
		}
		at := tl.place(s.Lane, cursor, s.Dur)
		if first {
			start = at
			first = false
		}
		cursor = at + s.Dur
	}
	if cursor > tl.end {
		tl.end = cursor
	}
	return start, cursor
}

func (tl *refTimeline) place(lane Lane, from, dur Seconds) Seconds {
	ivs := tl.busy[lane]
	pos := from
	i := 0
	for ; i < len(ivs); i++ {
		if ivs[i].end <= pos {
			continue
		}
		if pos+dur <= ivs[i].start {
			break
		}
		pos = ivs[i].end
	}
	ivs = append(ivs, interval{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = interval{pos, pos + dur}
	tl.busy[lane] = ivs
	tl.total[lane] += dur
	return pos
}

// sameBits compares two times bit for bit.
func sameBits(a, b Seconds) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestTimelineMatchesLinearReference drives Timeline and the linear-scan
// reference with the same seeded stream of placements and barriers and
// requires bit-identical (start, finish), Elapsed, LaneBusy and live
// interval lists after every call. Durations and earliest times are
// mostly small integers, so segments touch and gaps of exactly a
// segment's length are common; a share of float and tiny durations (too
// small to move a cursor near 1e3) covers rounding and empty intervals.
// Every few hundred steps a scratch copy (CopyFrom) of the timeline is
// checked against the reference as well.
func TestTimelineMatchesLinearReference(t *testing.T) {
	dur := func(rng *rand.Rand) Seconds {
		switch rng.Intn(10) {
		case 0:
			return Seconds(rng.Float64() * 3)
		case 1:
			return 1e-18
		case 2:
			return 0
		default:
			return Seconds(1 + rng.Intn(3))
		}
	}
	var scratch Timeline
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tl Timeline
		var ref refTimeline
		check := func(what string, got *Timeline) {
			t.Helper()
			if !sameBits(got.Elapsed(), ref.end) {
				t.Fatalf("seed %d %s: Elapsed %v, reference %v", seed, what, got.Elapsed(), ref.end)
			}
			for l := Lane(0); l < NumLanes; l++ {
				if !sameBits(got.LaneBusy(l), ref.total[l]) {
					t.Fatalf("seed %d %s: LaneBusy(%v) %v, reference %v", seed, what, l, got.LaneBusy(l), ref.total[l])
				}
				live := got.busy[l][got.head[l]:]
				if len(live) != len(ref.busy[l]) {
					t.Fatalf("seed %d %s: lane %v has %d live intervals, reference %d", seed, what, l, len(live), len(ref.busy[l]))
				}
				for k, iv := range live {
					if r := ref.busy[l][k]; !sameBits(iv.start, r.start) || !sameBits(iv.end, r.end) {
						t.Fatalf("seed %d %s: lane %v interval %d %v, reference %v", seed, what, l, k, iv, r)
					}
				}
			}
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 7:
				segs := make([]Segment, 1+rng.Intn(4))
				for k := range segs {
					segs[k] = Segment{Lane: Lane(rng.Intn(int(NumLanes))), Dur: dur(rng)}
				}
				// Start near the recent end of the schedule, sometimes far
				// back (a backfill) or before the floor.
				earliest := ref.end - Seconds(rng.Intn(40))
				if rng.Intn(8) == 0 {
					earliest = Seconds(rng.Float64()) * ref.end
				}
				if earliest < 0 {
					earliest = 0
				}
				s1, f1 := tl.Place(earliest, segs)
				s2, f2 := ref.Place(earliest, segs)
				if !sameBits(s1, s2) || !sameBits(f1, f2) {
					t.Fatalf("seed %d step %d: Place(%v, %v) = [%v,%v), reference [%v,%v)",
						seed, step, earliest, segs, s1, f1, s2, f2)
				}
			case r < 9:
				f := ref.end - Seconds(rng.Intn(60))
				tl.SetFloor(f)
				ref.SetFloor(f)
			default:
				scratch.CopyFrom(&tl)
				check(fmt.Sprintf("copy at step %d", step), &scratch)
			}
			check(fmt.Sprintf("step %d", step), &tl)
		}
	}
}

// A steady-state Place+SetFloor cycle on a warmed timeline allocates
// nothing: the live lists keep their backing arrays and the dead prefix
// is compacted in place.
func TestTimelinePlaceSetFloorAllocs(t *testing.T) {
	plan := []Segment{{LaneCPU, 1}, {LaneBus, 2}, {LanePE, 1}}
	var tl Timeline
	step := func() {
		e := tl.Elapsed()
		tl.Place(e-3, plan)
		tl.SetFloor(e - 40)
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("steady-state Place+SetFloor allocates %v per call, want 0", avg)
	}
}

// BenchmarkTimelinePlace places one unit segment at the tail of a bus
// lane holding n live unit intervals separated by unit gaps (where a
// serving plan lands: at its arrival, after the work in flight) and
// prunes the oldest interval, so the live count stays n. Warm-up grows
// the buffers first, so allocs/op reads the steady state even at
// -benchtime 1x.
func BenchmarkTimelinePlace(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("live=%d", n), func(b *testing.B) {
			seg := []Segment{{LaneBus, 1}}
			var tl Timeline
			for i := 0; i < n; i++ {
				tl.Place(Seconds(2*i), seg)
			}
			op := func() {
				tl.Place(tl.Elapsed()+1, seg)
				tl.SetFloor(tl.Elapsed() - Seconds(2*n))
			}
			for i := 0; i < 2*n; i++ {
				op() // grow the lane's buffer to its steady-state size
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
