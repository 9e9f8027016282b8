package bench

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

// The acceptance gate of the cluster experiment: at the pinned
// configuration the hierarchical lowering must beat the flat baseline,
// and the network leg must be priced (nonzero) on both.
func TestClusterSpeedupGate(t *testing.T) {
	hier, flat, err := clusterPinned()
	if err != nil {
		t.Fatal(err)
	}
	if hier.Get(cost.Network) <= 0 || flat.Get(cost.Network) <= 0 {
		t.Fatal("cluster AllReduce charged no network time")
	}
	speedup := float64(flat.Total()) / float64(hier.Total())
	if speedup <= 1 {
		t.Fatalf("hierarchical lowering does not beat the flat baseline: %.3fx (hier %v, flat %v)",
			speedup, hier.Total(), flat.Total())
	}
	t.Logf("pinned hier/flat speedup: %.2fx", speedup)
}

// The cost-only sweep must reach cluster scale (>= 1024 hosts) quickly —
// this is what CI runs, so it doubles as the wall-clock guard.
func TestClusterSweepScales(t *testing.T) {
	bd, err := MeasureClusterAllReduce(1024, 16<<10, cost.DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 || bd.Get(cost.Network) <= 0 {
		t.Fatalf("1024-host sweep produced an empty breakdown: %+v", bd)
	}
	small, err := MeasureClusterAllReduce(16, 16<<10, cost.DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Get(cost.Network) <= small.Get(cost.Network) {
		t.Error("network time did not grow from 16 to 1024 hosts")
	}
}

func TestClusterExperimentRuns(t *testing.T) {
	e, err := ByID("cluster")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Options{W: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("cluster experiment produced no output")
	}
}

// TestFig23bPinned pins the cost-only Figure 23(b) sweep bit for bit:
// the total and network time of every point, recorded from the original
// multi-host harness, so any drift in how the figure builds its cluster
// (geometry, timing model, fusion level, lowering) fails here.
func TestFig23bPinned(t *testing.T) {
	pins := []struct {
		aa         bool
		hosts      int
		lvl        core.Level
		total, net uint64
	}{
		{false, 1, core.Baseline, 0x3f5adabb8d398bc9, 0x0},
		{false, 1, core.CM, 0x3f4ec398c7fcfea7, 0x0},
		{false, 2, core.Baseline, 0x3f5be36c64461d5e, 0x3f108b0d70c9194e},
		{false, 2, core.CM, 0x3f506a7d3b0b10e9, 0x3f108b0d70c9194e},
		{false, 4, core.Baseline, 0x3f5d5a10baba0dea, 0x3f23faa96c041105},
		{false, 4, core.CM, 0x3f51e121917f0175, 0x3f23faa96c041105},
		{true, 1, core.Baseline, 0x3f5c6f942f1ed48b, 0x0},
		{true, 1, core.CM, 0x3f4bd09e2d968cba, 0x0},
		{true, 2, core.Baseline, 0x3f6c9cadc9b3397a, 0x3f5be5bb65842ec8},
		{true, 2, core.CM, 0x3f6924cdeeb01cc0, 0x3f5be5bb65842ec8},
		{true, 4, core.Baseline, 0x3f720ee225c33aef, 0x3f653af134e477df},
		{true, 4, core.CM, 0x3f7145e2e48b5729, 0x3f653af134e477df},
	}
	for _, p := range pins {
		bd, err := fig23bPoint(Options{CostOnly: true}, p.aa, p.hosts, p.lvl)
		if err != nil {
			t.Fatal(err)
		}
		total := math.Float64bits(float64(bd.Total()))
		net := math.Float64bits(float64(bd.Get(cost.Network)))
		if total != p.total || net != p.net {
			t.Errorf("alltoall=%v hosts=%d %v: total %#x net %#x, pinned %#x %#x",
				p.aa, p.hosts, p.lvl, total, net, p.total, p.net)
		}
	}
}
