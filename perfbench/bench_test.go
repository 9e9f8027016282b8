package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/serve"
)

// Small configurations: the same code paths as the benchmark's
// defaults, sized so each workload's simulated results come out in well
// under a second.
func smallServe(seed int64) *serveBench {
	return newServe(seed, serveConfig{requests: 600, warmup: 100})
}

func smallCompile(seed int64) *compileBench {
	return newCompile(seed, compileConfig{descriptors: 160})
}

func smallFunctional(seed int64) *functionalBench {
	return newFunctional(seed, functionalConfig{bytesPerPE: 1024, poolSlack: 4096})
}

// simulate sets w up and runs the passes that produce its simulated
// results, then returns them with the program counters by name.
func simulate(t *testing.T, w workload) map[string]float64 {
	t.Helper()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	var ops []float64
	for i := 0; i < w.minPasses(); i++ {
		if err := w.pass(i, nil, &ops); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]float64{}
	for _, m := range append(w.sim(), w.counters()...) {
		out[m.name] = m.value
	}
	return out
}

// TestSimulatedMetricsDeterministic pins the benchmark's own
// reproducibility: two runs at one seed give bit-identical simulated
// metrics and counters, and another seed changes the generated inputs
// while every output check still passes.
func TestSimulatedMetricsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(seed int64) workload
	}{
		{"serve", func(s int64) workload { return smallServe(s) }},
		{"compile", func(s int64) workload { return smallCompile(s) }},
		{"functional", func(s int64) workload { return smallFunctional(s) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := simulate(t, tc.make(1)), simulate(t, tc.make(1))
			if len(a) == 0 {
				t.Fatal("no simulated metrics")
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v at one seed", k, v, b[k])
				}
			}
			// The functional sweep's sizes are fixed; its seed moves only
			// the data (TestSeedChangesInputs).
			c := simulate(t, tc.make(2))
			if tc.name != "functional" && c["sim_s"] == a["sim_s"] {
				t.Errorf("sim_s %v did not change with the seed", a["sim_s"])
			}
		})
	}
}

// TestSeedChangesInputs checks that the seed reaches the generated
// arrivals, the descriptor stream and the functional input data.
func TestSeedChangesInputs(t *testing.T) {
	s1, s2 := smallServe(1), smallServe(2)
	for _, s := range []*serveBench{s1, s2} {
		if err := s.setUp(); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(s1.points[0].arrivals) == fmt.Sprint(s2.points[0].arrivals) {
		t.Error("serve arrivals did not change with the seed")
	}
	c1, c2 := smallCompile(1), smallCompile(2)
	c1.genStream()
	c2.genStream()
	if fmt.Sprint(c1.entries) == fmt.Sprint(c2.entries) {
		t.Error("compile descriptor stream did not change with the seed")
	}
	f1, f2 := smallFunctional(1), smallFunctional(2)
	for _, f := range []*functionalBench{f1, f2} {
		if err := f.setUp(); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(f1.pool, f2.pool) {
		t.Error("functional input data did not change with the seed")
	}
}

// TestServeLoopMatchesServeRun cross-checks the benchmark's own
// discrete-event loop against serve.Run on the same scenario and seed.
func TestServeLoopMatchesServeRun(t *testing.T) {
	b := smallServe(3)
	if err := b.setUp(); err != nil {
		t.Fatal(err)
	}
	k := sloPoint
	var ops []float64
	got, err := b.drive(&b.points[k], nil, &ops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serve.Run(b.points[k].spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.requests != res.Submitted || got.shed != res.Shed || got.missed != res.Missed {
		t.Errorf("requests/shed/missed %d/%d/%d, serve.Run %d/%d/%d",
			got.requests, got.shed, got.missed, res.Submitted, res.Shed, res.Missed)
	}
	if p50, p99 := percentile(got.sojourns, 0.5), percentile(got.sojourns, 0.99); p50 != float64(res.SLO.P50) || p99 != float64(res.SLO.P99) {
		t.Errorf("SLO p50/p99 %v/%v, serve.Run %v/%v", p50, p99, res.SLO.P50, res.SLO.P99)
	}
	if len(ops) != got.requests {
		t.Errorf("%d op costs recorded for %d requests", len(ops), got.requests)
	}
}

func TestGoodput(t *testing.T) {
	rhos := []float64{0.75, 0.9, 1.05, 1.2}
	for _, tc := range []struct {
		miss []float64
		want float64
	}{
		{[]float64{0, 0, 0, 0.005}, 1.2},
		{[]float64{0, 0.005, 0.015, 0.03}, 0.975},
		{[]float64{0.02, 0.03, 0.04, 0.05}, 0.375},
	} {
		if got := goodput(rhos, tc.miss); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", tc.want) {
			t.Errorf("goodput(%v) = %v, want %v", tc.miss, got, tc.want)
		}
	}
}

func TestWindowTail(t *testing.T) {
	ops := make([]float64, 300)
	for i := range ops {
		ops[i] = float64(i % 100)
	}
	p, v, beyond, windows := windowTail(ops, 100)
	if p != 0.9 || v != 89 || beyond != 10 || windows != 3 {
		t.Errorf("windowTail = p%v %v, %d beyond, %d windows", p, v, beyond, windows)
	}
	if m, windows := windowMedian(ops, 100); m != 49 || windows != 3 {
		t.Errorf("windowMedian = %v over %d windows", m, windows)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the names are checked
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON runs a tiny untraced and traced
// phase of every workload and checks that each reports exactly the
// metrics BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	metricNames := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name)
		}
		sort.Strings(out)
		return out
	}
	if got := fmt.Sprint(names(spec.Workloads)); got != "[compile functional serve]" {
		t.Errorf("workloads %s", got)
	}
	for name, w := range map[string]workload{"serve": smallServe(1), "compile": smallCompile(1), "functional": smallFunctional(1)} {
		if err := w.setUp(); err != nil {
			t.Fatal(err)
		}
		next := 0
		ph, err := measure(w, 0, nil, &next)
		if err != nil {
			t.Fatal(err)
		}
		e2e := append(endToEnd(w, ph, []float64{1}, 1, 0), metric{name: "heap_mb"})
		if got, want := fmt.Sprint(metricNames(e2e)), fmt.Sprint(names(spec.EndToEnd)); got != want {
			t.Errorf("%s end-to-end metrics\n got %s\nwant %s", name, got, want)
		}
		tr := newTracer()
		tph, err := measure(w, 0, tr, &next)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(metricNames(perLayer(w, ph, tph, tr))), fmt.Sprint(names(spec.PerLayer)); got != want {
			t.Errorf("%s per-layer metrics\n got %s\nwant %s", name, got, want)
		}
	}
}

// The descriptors the compile stream draws must all be valid on the
// machines they target: no operation of the workload may fail.
func TestCompileStreamValid(t *testing.T) {
	b := newCompile(5, compileConfig{descriptors: 2000})
	b.genStream()
	if _, err := b.run(b.stream, nil, nil); err != nil {
		t.Fatal(err)
	}
	kinds := map[entryKind]int{}
	for _, e := range b.entries {
		kinds[e.kind]++
	}
	if kinds[sequence] == 0 || kinds[cluster] == 0 || kinds[single] == 0 {
		t.Errorf("stream kinds %v", kinds)
	}
}
