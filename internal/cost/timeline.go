package cost

import "sort"

// This file provides overlap-aware elapsed-time accounting. The Meter
// (cost.go) sums *work*: every charge adds to its category no matter when
// it happens, which models fully serialized execution. Asynchronous plan
// execution (core/async.go) needs a second notion — *elapsed* simulated
// time when independent collectives overlap — which the Timeline provides:
// work is placed on the lane (hardware resource) that performs it, lanes
// run in parallel, and the elapsed time is the makespan.
//
// Four lanes model the independently-clocked resources of the
// PIM-DIMM system:
//
//   - LaneCPU: the host core doing domain transfers, modulation,
//     reductions and staging-buffer traffic;
//   - LaneBus: the external memory bus moving bursts between host and
//     DIMMs;
//   - LanePE: the in-DIMM processing elements running reorder kernels and
//     application kernels;
//   - LaneNet: the host's NIC(s) moving inter-host rounds of a cluster
//     collective, so a submitted cluster plan's network leg can overlap
//     another plan's bus or PE work.
//
// A serial execution occupies its lanes back-to-back; two independent
// plans may interleave, e.g. plan B's PE-side reordering runs while plan
// A's bus epoch is in flight — the overlap PID-Comm's async execution is
// after. The total work per lane is unchanged; only the makespan shrinks.

// Lane identifies one of the overlappable hardware resources of the
// simulated machine.
type Lane int

const (
	// LaneCPU is host-core compute: domain transfer, modulation,
	// reduction, staging-memory traffic, launch/sync overhead.
	LaneCPU Lane = iota
	// LaneBus is the external bus between host and DIMMs (and the
	// network link of the multi-host study).
	LaneBus
	// LanePE is the in-DIMM PE array: reorder kernels and application
	// kernels.
	LanePE
	// LaneNet is the inter-host network interface of the cluster layer.
	LaneNet

	// NumLanes is the lane count.
	NumLanes
)

// String returns a short lane label.
func (l Lane) String() string {
	switch l {
	case LaneCPU:
		return "cpu"
	case LaneBus:
		return "bus"
	case LanePE:
		return "pe"
	case LaneNet:
		return "net"
	default:
		return "lane?"
	}
}

// LaneOf maps a meter category to the hardware resource that spends the
// time: PEMem occupies the bus, Network occupies the NIC, PEMod and
// Kernel occupy the PE array, everything else occupies the host core.
func LaneOf(c Category) Lane {
	switch c {
	case PEMem:
		return LaneBus
	case Network:
		return LaneNet
	case PEMod, Kernel:
		return LanePE
	default:
		return LaneCPU
	}
}

// Segment is one contiguous occupation of a lane. A plan's charge trace
// coalesces into an ordered segment list (SegmentsOf); within a plan the
// segments execute sequentially, across plans each lane serializes.
type Segment struct {
	Lane Lane
	Dur  Seconds
}

// SegmentsOf coalesces an ordered charge trace into lane segments:
// consecutive charges on the same lane merge into one segment. The sum of
// segment durations equals the trace's total.
func SegmentsOf(adds []TraceEntry) []Segment {
	var segs []Segment
	for _, e := range adds {
		if e.T <= 0 {
			continue
		}
		l := LaneOf(e.Cat)
		if n := len(segs); n > 0 && segs[n-1].Lane == l {
			segs[n-1].Dur += e.T
		} else {
			segs = append(segs, Segment{Lane: l, Dur: e.T})
		}
	}
	return segs
}

// Segments converts a breakdown into lane segments (category order, same
// coalescing as SegmentsOf). Used to place work that was accounted only as
// a breakdown — e.g. an application kernel launch — onto a timeline.
func (b Breakdown) Segments() []Segment {
	var adds []TraceEntry
	for i, v := range b.byCat {
		if v > 0 {
			adds = append(adds, TraceEntry{Cat: Category(i), T: v})
		}
	}
	return SegmentsOf(adds)
}

// interval is one busy span [start, end) on a lane.
type interval struct{ start, end Seconds }

// Timeline is the overlap-aware schedule of one simulated machine: per
// lane a set of busy intervals, placed by first-fit. The zero value is an
// empty timeline ready to use. Timeline is not safe for concurrent use;
// core.Comm guards its timeline with the execution lock.
//
// A lane's live intervals are busy[l][head[l]:]. They are disjoint and
// sorted, so their ends never decrease and first-fit binary-searches its
// starting point. Intervals pruned by SetFloor stay in the dead prefix
// busy[l][:head[l]] until it outgrows the live part.
type Timeline struct {
	busy  [NumLanes][]interval
	head  [NumLanes]int
	total [NumLanes]Seconds
	end   Seconds
	floor Seconds
}

// Elapsed returns the makespan: the finish time of the latest placed
// segment. It never decreases under Place.
func (tl *Timeline) Elapsed() Seconds { return tl.end }

// LaneBusy returns the cumulative time ever placed on a lane — the
// lane's total work, independent of overlap and of SetFloor pruning.
// LaneBusy(l)/Elapsed() is the lane's utilization.
func (tl *Timeline) LaneBusy(l Lane) Seconds { return tl.total[l] }

// Reset empties the timeline.
func (tl *Timeline) Reset() { *tl = Timeline{} }

// CopyFrom makes tl an independent copy of src: placements on either
// never disturb the other. It reuses tl's interval buffers, so once they
// are large enough it allocates nothing — the lookahead submission
// scheduler copies its projection into one scratch timeline per
// candidate it scores. Only src's live intervals are copied.
func (tl *Timeline) CopyFrom(src *Timeline) {
	for l := range tl.busy {
		tl.busy[l] = append(tl.busy[l][:0], src.busy[l][src.head[l]:]...)
		tl.head[l] = 0
	}
	tl.total, tl.end, tl.floor = src.total, src.end, src.floor
}

// SetFloor declares that no future placement will start before f (a
// barrier: a serial run or queue flush happened at f). Busy intervals
// entirely before the floor can never border a usable gap again and are
// pruned, keeping the live lists — and the first-fit search — bounded by
// the work in flight since the last barrier rather than the timeline's
// whole history. Pruning advances each lane's head offset; the dead
// prefix is compacted away only once it exceeds half the lane's slice,
// so repeated barriers cost amortised O(1) per pruned interval.
func (tl *Timeline) SetFloor(f Seconds) {
	if f <= tl.floor {
		return
	}
	tl.floor = f
	for l := range tl.busy {
		ivs, h := tl.busy[l], tl.head[l]
		for h < len(ivs) && ivs[h].end <= f {
			h++
		}
		if 2*h > len(ivs) {
			tl.busy[l] = ivs[:copy(ivs, ivs[h:])]
			h = 0
		}
		tl.head[l] = h
	}
}

// Place schedules segs starting no earlier than earliest: segments run
// sequentially (each starts when its predecessor finishes at the
// earliest) and each occupies the first gap on its lane that fits —
// gaps left by earlier placements are backfilled, which is what lets an
// independent plan slip its PE work under another plan's bus epoch.
// It returns the start of the first segment and the finish of the last.
//
// Placement is monotone: a plan never finishes later than it would under
// fully serial execution, because every delay is caused by real work
// already occupying the lane.
func (tl *Timeline) Place(earliest Seconds, segs []Segment) (start, finish Seconds) {
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

// PlaceSerial appends segs after everything already placed — the fully
// serialized (barrier) execution path.
func (tl *Timeline) PlaceSerial(segs []Segment) (start, finish Seconds) {
	return tl.Place(tl.end, segs)
}

// place books the first gap of length dur on the lane at or after from
// and returns the booked start time.
func (tl *Timeline) place(lane Lane, from, dur Seconds) Seconds {
	ivs := tl.busy[lane]
	// First-fit skips every interval ending at or before from, and ends
	// never decrease: binary-search the first one ending after it. From
	// there on each interval ends no earlier than the candidate position.
	h := tl.head[lane]
	i := h + sort.Search(len(ivs)-h, func(k int) bool { return ivs[h+k].end > from })
	pos := from
	for ; i < len(ivs); i++ {
		if pos+dur <= ivs[i].start {
			break // fits in the gap before interval i
		}
		pos = ivs[i].end
	}
	// Insert in place: grow by one, shift the tail, write the slot. The
	// backing array is retained across SetFloor pruning, so once a lane's
	// list reaches its steady-state size this books no allocation —
	// required by the zero-alloc cached-replay contract of core.
	ivs = append(ivs, interval{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = interval{pos, pos + dur}
	tl.busy[lane] = ivs
	tl.total[lane] += dur
	return pos
}
