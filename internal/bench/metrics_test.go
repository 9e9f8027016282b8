package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareMetricsGate exercises the benchmark-regression gate logic
// against real collected metrics (fusion only — the cheapest collector):
// an equal baseline passes, a baseline the current build beats by more
// than the threshold fails, and a baseline metric the build no longer
// produces fails.
func TestCompareMetricsGate(t *testing.T) {
	ids := []string{"fusion"}
	mf, err := CollectMetrics(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Metrics) == 0 || mf.Schema != MetricsSchema {
		t.Fatalf("collected %+v", mf)
	}

	var out bytes.Buffer
	if err := CompareMetrics(&out, mf, ids, 0.10); err != nil {
		t.Fatalf("identical baseline failed: %v", err)
	}

	// Halve the baseline: every current metric is now a 100% regression.
	worse := MetricsFile{Schema: MetricsSchema, Experiments: mf.Experiments, Metrics: map[string]float64{}}
	for k, v := range mf.Metrics {
		worse.Metrics[k] = v / 2
	}
	out.Reset()
	err = CompareMetrics(&out, worse, ids, 0.10)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("halved baseline did not fail: %v", err)
	}

	// A baseline metric the build no longer produces must fail too.
	ghost := MetricsFile{Schema: MetricsSchema, Experiments: mf.Experiments, Metrics: map[string]float64{}}
	for k, v := range mf.Metrics {
		ghost.Metrics[k] = v
	}
	ghost.Metrics["fusion/ghost"] = 1
	out.Reset()
	err = CompareMetrics(&out, ghost, ids, 0.10)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("ghost metric did not fail: %v", err)
	}

	// Determinism: recollecting yields bit-identical values (the gate's
	// premise — the cost model has no nondeterminism).
	again, err := CollectMetrics(ids)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range mf.Metrics {
		if again.Metrics[k] != v {
			t.Fatalf("metric %s not deterministic: %v vs %v", k, v, again.Metrics[k])
		}
	}

	if _, err := CollectMetrics([]string{"nope"}); err == nil {
		t.Fatal("unknown experiment id did not fail")
	}
}

// hostClockMetrics are the gated metrics measured on the host's wall
// clock rather than in simulated time, and so the only ones allowed to
// differ between two collections.
var hostClockMetrics = map[string]bool{"funcspeed/ratio": true}

// TestCollectMetricsDeterministic collects every gated experiment twice
// and requires every simulated metric to repeat exactly: a collector
// whose result depends on goroutine timing (say, a worker-mode Submit
// whose picks race the submissions) fails here instead of flaking the
// regression gate.
func TestCollectMetricsDeterministic(t *testing.T) {
	ids := MetricExperimentIDs()
	a, err := CollectMetrics(ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectMetrics(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("collected %d metrics, then %d", len(a.Metrics), len(b.Metrics))
	}
	for k, v := range a.Metrics {
		if hostClockMetrics[k] {
			continue
		}
		if w, ok := b.Metrics[k]; !ok || w != v {
			t.Errorf("metric %s not deterministic: %v, then %v", k, v, w)
		}
	}
	for k := range hostClockMetrics {
		if _, ok := a.Metrics[k]; !ok {
			t.Errorf("host-clock exclusion %s is no longer collected; drop it from the list", k)
		}
	}
}
