package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// layer names the program layer a span's call enters. The benchmark
// times calls into public functions from the outside; it never reaches
// inside the program.
type layer uint8

const (
	lPass           layer = iota // one unit of measured work (benchmark's own loop)
	lOp                          // one op: the root of a compile/functional op's calls
	lCompile                     // Comm.Compile, Comm.CompileSequence
	lClusterCompile              // ClusterComm/Cluster.Compile
	lClusterRun                  // ClusterPlan.Run
	lAdmit                       // CompiledPlan.SubmitOpts
	lSched                       // Machine.Step
	lExec                        // CompiledPlan.Run
	lFill                        // Comm.SetPEBuffer (one whole input rewrite)
	lRead                        // Comm.GetPEBuffer (one whole output read-back)
	numLayers
)

var layerNames = [numLayers]string{"pass", "op", "compile", "cluster.compile", "cluster.run",
	"admit", "sched", "exec", "mram.fill", "mram.read"}

// span is one timed call. Times are nanoseconds since the tracer's
// origin; parent indexes the enclosing span (-1 at the root); req is
// the op or request id every span of one op shares (-1 for none). arg
// carries one layer-specific value: 1 for a plan-cache hit (compile) or
// a rejected admission (admit), the queue depth before a Step (sched),
// the payload bytes of a Run (exec).
type span struct {
	start, end int64
	req, arg   int64
	parent     int32
	layer      layer
}

// tracer keeps every span of the traced phase in memory and writes
// them out when the run ends. A nil *tracer records nothing, which is
// how the untraced runs turn tracing off.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) parent() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span that encloses the calls recorded until its end.
func (t *tracer) begin(l layer, req int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.origin)), req: req, parent: t.parent(), layer: l})
	t.open = append(t.open, int32(len(t.spans)-1))
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = int64(time.Since(t.origin))
}

// add records a leaf span from timestamps the caller already took.
func (t *tracer) add(l layer, s, e time.Time, req, arg int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{start: int64(s.Sub(t.origin)), end: int64(e.Sub(t.origin)),
		req: req, arg: arg, parent: t.parent(), layer: l})
}

// selfTimes returns each span's duration minus the part its children
// cover, in seconds. Children of one span never overlap: the benchmark
// makes its calls one at a time.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d := float64(s.end-s.start) / 1e9
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// write stores the spans as gzip-compressed JSON lines, one
// [layer, start_ns, end_ns, parent, req, arg] array per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "{\"layers\":%q}\n", layerNames[:])
	for _, s := range t.spans {
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]\n", s.layer, s.start, s.end, s.parent, s.req, s.arg)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// ascending-sorted xs, and 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(len(sorted))))
	r = min(max(r, 1), len(sorted))
	return sorted[r-1]
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tail returns the highest ladder percentile of the ascending-sorted xs
// that still has at least ten samples ranked beyond it, its value and
// that sample count.
func tail(sorted []float64) (p, v float64, beyond int) {
	for _, p := range tailLadder {
		r := int(math.Ceil(p * float64(len(sorted))))
		if b := len(sorted) - r; b >= 10 {
			return p, sorted[r-1], b
		}
	}
	return 1, percentile(sorted, 1), 0
}

// split cuts ops, in completion order, into consecutive windows of w
// ops: one window of all of them when w is 0 or larger than the count;
// a short last window is dropped.
func split(ops []float64, w int) [][]float64 {
	if w <= 0 || w > len(ops) {
		w = len(ops)
	}
	var out [][]float64
	for lo := 0; lo+w <= len(ops) && w > 0; lo += w {
		out = append(out, ops[lo:lo+w])
	}
	return out
}

// windowTail takes the tail of each window of w ops (see split) and
// returns the median over the windows, with the percentile and samples
// beyond it of one window. A single window's tail follows the run's
// worst interference; the median over many is steady.
func windowTail(ops []float64, w int) (p, v float64, beyond, windows int) {
	var tails []float64
	for _, win := range split(ops, w) {
		var tv float64
		p, tv, beyond = tail(sorted(win))
		tails = append(tails, tv)
	}
	return p, percentile(sorted(tails), 0.5), beyond, len(tails)
}

// windowMedian returns the median over the windows of w ops (see split)
// of each window's median, and the window count. A window that holds one
// op of each kind (a functional sweep) puts the median on the same kind
// in every window, where a median over the whole run would fall between
// two kinds when the op count varies.
func windowMedian(ops []float64, w int) (float64, int) {
	var meds []float64
	for _, win := range split(ops, w) {
		meds = append(meds, percentile(sorted(win), 0.5))
	}
	return percentile(sorted(meds), 0.5), len(meds)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// memSnap is the part of runtime.MemStats a phase reports.
type memSnap struct {
	totalAlloc, numGC, pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection frees what sync.Pool victim caches kept through the
// first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
