// Package multihost holds the end-to-end tests of the hierarchical
// multi-host collectives of § IX-A (Figure 23(b)): several hosts, each
// driving its own PIM subsystem as a 1-D hypercube over all its PEs,
// cooperate over an MPI-like network, and every cluster collective
// spans the H×P PEs of the whole cluster. The cluster itself is
// core.Cluster (public surface: pidcomm.NewCluster); this directory
// contains tests only.
package multihost

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

var testGeo = dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14} // 16 PEs/host

// dims selects the single dimension of each host's 1-D hypercube, so
// every cluster collective spans the whole host.
const dims = "1"

// build joins hosts identical hosts of the given geometry, each a 1-D
// hypercube over its PEs, into a cluster with the default parameters.
func build(t *testing.T, hosts int, geo dram.Geometry, costOnly bool) *core.Cluster {
	t.Helper()
	comms := make([]*core.Comm, hosts)
	for h := range comms {
		var sys *dram.System
		var err error
		if costOnly {
			sys, err = dram.NewPhantomSystem(geo)
		} else {
			sys, err = dram.NewSystem(geo)
		}
		if err != nil {
			t.Fatal(err)
		}
		hc, err := core.NewHypercube(sys, []int{geo.NumPEs()})
		if err != nil {
			t.Fatal(err)
		}
		if costOnly {
			comms[h] = core.NewCostComm(hc, cost.DefaultParams())
		} else {
			comms[h] = core.NewComm(hc, cost.DefaultParams())
		}
	}
	cl, err := core.NewCluster(comms)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func newCluster(t *testing.T, hosts int) *core.Cluster {
	t.Helper()
	return build(t, hosts, testGeo, false)
}

// fill writes per-global-PE data and returns it indexed by global PE.
func fill(cl *core.Cluster, off, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	P := cl.PEsPerHost()
	out := make([][]byte, cl.NumPEs())
	for h := 0; h < cl.NumHosts(); h++ {
		for p := 0; p < P; p++ {
			b := make([]byte, n)
			rng.Read(b)
			cl.Host(h).SetPEBuffer(p, off, b)
			out[h*P+p] = b
		}
	}
	return out
}

// runRooted runs a rooted Gather or Reduce and returns the root's result
// (nil on a cost-only cluster).
func runRooted(cl *core.Cluster, d core.ClusterCollective) ([]byte, cost.Breakdown, error) {
	cp, err := cl.Compile(d)
	if err != nil {
		return nil, cost.Breakdown{}, err
	}
	bd, err := cp.Run()
	if err != nil {
		return nil, cost.Breakdown{}, err
	}
	return cp.Results(), bd, nil
}

func allReduce(srcOff, dstOff, bytesPerPE int, lvl core.Level) core.ClusterCollective {
	return core.ClusterCollective{Collective: core.Collective{
		Prim: core.AllReduce, Dims: dims,
		Src: core.Span(srcOff, bytesPerPE), Dst: core.At(dstOff),
		Elem: elem.I32, Op: elem.Sum, Level: lvl,
	}}
}

// alltoAll moves blockBytes blocks, one per global PE.
func alltoAll(cl *core.Cluster, srcOff, dstOff, blockBytes int, lvl core.Level) core.ClusterCollective {
	return core.ClusterCollective{Collective: core.Collective{
		Prim: core.AlltoAll, Dims: dims,
		Src: core.Span(srcOff, cl.NumPEs()*blockBytes), Dst: core.At(dstOff), Level: lvl,
	}}
}

// reduceScatter reduces blockBytes blocks, one per global PE.
func reduceScatter(cl *core.Cluster, srcOff, dstOff, blockBytes int, lvl core.Level) core.ClusterCollective {
	return core.ClusterCollective{Collective: core.Collective{
		Prim: core.ReduceScatter, Dims: dims,
		Src: core.Span(srcOff, cl.NumPEs()*blockBytes), Dst: core.At(dstOff),
		Elem: elem.I32, Op: elem.Sum, Level: lvl,
	}}
}

func allGather(srcOff, dstOff, bytesPerPE int, lvl core.Level) core.ClusterCollective {
	return core.ClusterCollective{Collective: core.Collective{
		Prim: core.AllGather, Dims: dims,
		Src: core.Span(srcOff, bytesPerPE), Dst: core.At(dstOff), Level: lvl,
	}}
}

func TestAllReduceCorrectAcrossHosts(t *testing.T) {
	for _, hosts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dhosts", hosts), func(t *testing.T) {
			cl := newCluster(t, hosts)
			P := cl.PEsPerHost()
			m := P * 8
			in := fill(cl, 0, m, 17)
			if _, err := cl.Run(allReduce(0, 2*m, m, core.CM)); err != nil {
				t.Fatal(err)
			}
			want := core.RefReduce(elem.I32, elem.Sum, in)
			for h := 0; h < hosts; h++ {
				for p := 0; p < P; p++ {
					got := cl.Host(h).GetPEBuffer(p, 2*m, m)
					if !bytes.Equal(got, want) {
						t.Fatalf("host %d PE %d mismatch", h, p)
					}
				}
			}
		})
	}
}

func TestAlltoAllCorrectAcrossHosts(t *testing.T) {
	for _, hosts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dhosts", hosts), func(t *testing.T) {
			cl := newCluster(t, hosts)
			P := cl.PEsPerHost()
			s := 8
			m := cl.NumPEs() * s
			in := fill(cl, 0, m, 23)
			if _, err := cl.Run(alltoAll(cl, 0, 2*m, s, core.CM)); err != nil {
				t.Fatal(err)
			}
			want := core.RefAlltoAll(in, s)
			for h := 0; h < hosts; h++ {
				for p := 0; p < P; p++ {
					got := cl.Host(h).GetPEBuffer(p, 2*m, m)
					if !bytes.Equal(got, want[h*P+p]) {
						t.Fatalf("host %d PE %d mismatch", h, p)
					}
				}
			}
		})
	}
}

func TestGlobalReduceScatter(t *testing.T) {
	for _, hosts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dhosts", hosts), func(t *testing.T) {
			cl := newCluster(t, hosts)
			P := cl.PEsPerHost()
			blk := 8
			m := cl.NumPEs() * blk
			in := fill(cl, 0, m, 41)
			if _, err := cl.Run(reduceScatter(cl, 0, 2*m, blk, core.IM)); err != nil {
				t.Fatal(err)
			}
			want := core.RefReduceScatter(elem.I32, elem.Sum, in, blk)
			for h := 0; h < hosts; h++ {
				for p := 0; p < P; p++ {
					got := cl.Host(h).GetPEBuffer(p, 2*m, blk)
					if !bytes.Equal(got, want[h*P+p]) {
						t.Fatalf("host %d PE %d mismatch", h, p)
					}
				}
			}
		})
	}
}

func TestGlobalAllGather(t *testing.T) {
	for _, hosts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dhosts", hosts), func(t *testing.T) {
			cl := newCluster(t, hosts)
			P := cl.PEsPerHost()
			s := 16
			in := fill(cl, 0, s, 43)
			if _, err := cl.Run(allGather(0, 256, s, core.CM)); err != nil {
				t.Fatal(err)
			}
			want := core.RefAllGather(in)
			for h := 0; h < hosts; h++ {
				for p := 0; p < P; p++ {
					got := cl.Host(h).GetPEBuffer(p, 256, cl.NumPEs()*s)
					if !bytes.Equal(got, want[h*P+p]) {
						t.Fatalf("host %d PE %d mismatch", h, p)
					}
				}
			}
		})
	}
}

// Figure 23(b) shapes: network overhead grows with host count; AllReduce's
// network share is far smaller than AlltoAll's (reduced data crosses the
// wire); PID-Comm stays ahead of the baseline.
func TestFigure23bShapes(t *testing.T) {
	// Sizes large enough that bandwidth terms dominate latency and launch
	// overheads (the regime of Figure 23(b): 2 MB per PE on real hardware).
	// 128 PEs per host on one channel approximates the paper's 256-PE
	// hosts' bus-share-per-PE regime.
	bigGeo := dram.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 8, MramPerBank: 1 << 19}
	run := func(hosts int, lvl core.Level, aa bool) cost.Breakdown {
		cl := build(t, hosts, bigGeo, false)
		P := cl.PEsPerHost()
		var m int
		if aa {
			m = cl.NumPEs() * 512 // 512 B blocks per global PE
		} else {
			m = P * 1024
		}
		fill(cl, 0, m, 3)
		d := allReduce(0, 2*m, m, lvl)
		if aa {
			d = alltoAll(cl, 0, 2*m, 512, lvl)
		}
		bd, err := cl.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		return bd
	}
	// Network time grows with hosts.
	ar2 := run(2, core.CM, false)
	ar4 := run(4, core.CM, false)
	if !(ar4.Get(cost.Network) > ar2.Get(cost.Network)) {
		t.Error("AllReduce network time should grow with hosts")
	}
	if run(1, core.CM, false).Get(cost.Network) != 0 {
		t.Error("single host should have no network time")
	}
	// AlltoAll's network fraction exceeds AllReduce's.
	aa2 := run(2, core.CM, true)
	arFrac := float64(ar2.Get(cost.Network)) / float64(ar2.Total())
	aaFrac := float64(aa2.Get(cost.Network)) / float64(aa2.Total())
	if aaFrac <= arFrac {
		t.Errorf("AlltoAll net fraction %.3f should exceed AllReduce's %.3f", aaFrac, arFrac)
	}
	// PID-Comm beats the baseline in the multi-host setting too.
	if base := run(2, core.Baseline, true); base.Total() <= aa2.Total() {
		t.Errorf("baseline multihost AlltoAll (%v) should be slower than PID-Comm (%v)",
			base.Total(), aa2.Total())
	}
}

// § IX-A trends: RS sends data after reduction, AG before duplication —
// both keep the network share far below AlltoAll's.
func TestReducedTrafficTrends(t *testing.T) {
	cl := newCluster(t, 2)
	blk := 64
	m := cl.NumPEs() * blk
	fill(cl, 0, m, 5)
	rsBD, err := cl.Run(reduceScatter(cl, 0, 2*m, blk, core.IM))
	if err != nil {
		t.Fatal(err)
	}
	cl2 := newCluster(t, 2)
	fill(cl2, 0, m, 5)
	aaBD, err := cl2.Run(alltoAll(cl2, 0, 2*m, blk, core.CM))
	if err != nil {
		t.Fatal(err)
	}
	rsNet := float64(rsBD.Get(cost.Network))
	aaNet := float64(aaBD.Get(cost.Network))
	if rsNet >= aaNet {
		t.Errorf("RS network time %v should be below AlltoAll's %v", rsNet, aaNet)
	}
}

// A cost-only cluster (phantom systems, no data) must charge exactly
// what the functional cluster charges, for every cluster collective.
func TestCostOnlyClusterMatchesFunctional(t *testing.T) {
	for _, hosts := range []int{1, 2} {
		fc := newCluster(t, hosts)
		cc := build(t, hosts, testGeo, true)
		if cc.Functional() {
			t.Fatal("phantom hosts built a functional cluster")
		}
		P := fc.PEsPerHost()
		m := P * 8
		rootBuf := make([]byte, fc.NumPEs()*8)

		// payload supplies a rooted collective's host payload on a
		// functional cluster; a cost-only one takes the size from Dst.
		payload := func(cl *core.Cluster, buf []byte) [][]byte {
			if cl.Functional() {
				return [][]byte{buf}
			}
			return nil
		}
		type step struct {
			name string
			run  func(cl *core.Cluster) (cost.Breakdown, error)
		}
		steps := []step{
			{"AllReduce", func(cl *core.Cluster) (cost.Breakdown, error) {
				return cl.Run(allReduce(0, 2*m, m, core.CM))
			}},
			{"ReduceScatter", func(cl *core.Cluster) (cost.Breakdown, error) {
				gm := cl.NumPEs() * 8 // 8-byte blocks, one per global PE
				return cl.Run(reduceScatter(cl, 0, 2*gm, 8, core.IM))
			}},
			{"AllGather", func(cl *core.Cluster) (cost.Breakdown, error) {
				return cl.Run(allGather(0, 2*m, 8, core.IM))
			}},
			{"AlltoAll", func(cl *core.Cluster) (cost.Breakdown, error) {
				gm := cl.NumPEs() * 8
				return cl.Run(alltoAll(cl, 0, 2*gm, 8, core.CM))
			}},
			{"Broadcast", func(cl *core.Cluster) (cost.Breakdown, error) {
				return cl.Run(core.ClusterCollective{Collective: core.Collective{
					Prim: core.Broadcast, Dims: dims, Dst: core.Span(0, m),
					Hosts: payload(cl, rootBuf[:m]), Level: core.Baseline}})
			}},
			{"Scatter", func(cl *core.Cluster) (cost.Breakdown, error) {
				return cl.Run(core.ClusterCollective{Collective: core.Collective{
					Prim: core.Scatter, Dims: dims, Dst: core.Span(0, 8),
					Hosts: payload(cl, rootBuf), Level: core.IM}})
			}},
			{"Gather", func(cl *core.Cluster) (cost.Breakdown, error) {
				_, bd, err := runRooted(cl, core.ClusterCollective{Collective: core.Collective{
					Prim: core.Gather, Dims: dims, Src: core.Span(0, 8), Level: core.IM}})
				return bd, err
			}},
			{"Reduce", func(cl *core.Cluster) (cost.Breakdown, error) {
				_, bd, err := runRooted(cl, core.ClusterCollective{Collective: core.Collective{
					Prim: core.Reduce, Dims: dims, Src: core.Span(0, m),
					Elem: elem.I32, Op: elem.Sum, Level: core.IM}})
				return bd, err
			}},
		}
		for _, s := range steps {
			fill(fc, 0, m, 9)
			want, err := s.run(fc)
			if err != nil {
				t.Fatalf("%s functional (%d hosts): %v", s.name, hosts, err)
			}
			got, err := s.run(cc)
			if err != nil {
				t.Fatalf("%s cost-only (%d hosts): %v", s.name, hosts, err)
			}
			if want != got {
				t.Errorf("%s (%d hosts): functional %v, cost-only %v", s.name, hosts, want, got)
			}
		}
	}
}

func TestRootedBroadcast(t *testing.T) {
	cl := newCluster(t, 3)
	buf := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(buf)
	if _, err := cl.Run(core.ClusterCollective{Collective: core.Collective{
		Prim: core.Broadcast, Dims: dims, Dst: core.Span(128, len(buf)),
		Hosts: [][]byte{buf}, Level: core.CM}}); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		for p := 0; p < cl.PEsPerHost(); p++ {
			if !bytes.Equal(cl.Host(h).GetPEBuffer(p, 128, 64), buf) {
				t.Fatalf("host %d PE %d missing payload", h, p)
			}
		}
	}
}

func TestRootedScatterGatherRoundTrip(t *testing.T) {
	cl := newCluster(t, 2)
	blk := 16
	buf := make([]byte, cl.NumPEs()*blk)
	rand.New(rand.NewSource(2)).Read(buf)
	if _, err := cl.Run(core.ClusterCollective{Collective: core.Collective{
		Prim: core.Scatter, Dims: dims, Dst: core.Span(0, blk),
		Hosts: [][]byte{buf}, Level: core.IM}}); err != nil {
		t.Fatal(err)
	}
	got, _, err := runRooted(cl, core.ClusterCollective{Collective: core.Collective{
		Prim: core.Gather, Dims: dims, Src: core.Span(0, blk), Level: core.IM}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("scatter/gather round trip mismatch")
	}
}

func TestRootedReduce(t *testing.T) {
	cl := newCluster(t, 4)
	P := cl.PEsPerHost()
	m := P * 8
	in := fill(cl, 0, m, 9)
	got, bd, err := runRooted(cl, core.ClusterCollective{Collective: core.Collective{
		Prim: core.Reduce, Dims: dims, Src: core.Span(0, m),
		Elem: elem.I32, Op: elem.Sum, Level: core.IM}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, core.RefReduce(elem.I32, elem.Sum, in)) {
		t.Fatal("reduce mismatch")
	}
	// Only reduced copies cross the wire: 3 host portions of m bytes.
	if bd.Get(cost.Network) <= 0 {
		t.Error("no network time charged")
	}
}

func TestRootedValidation(t *testing.T) {
	cl := newCluster(t, 2)
	if _, err := cl.Run(core.ClusterCollective{Collective: core.Collective{
		Prim: core.Broadcast, Dims: dims, Dst: core.Span(0, 8),
		Hosts: [][]byte{make([]byte, 8)}, Level: core.IM}, Root: 5}); err == nil {
		t.Error("bad root accepted")
	}
	if _, err := cl.Run(core.ClusterCollective{Collective: core.Collective{
		Prim: core.Scatter, Dims: dims, Dst: core.Span(0, 8),
		Hosts: [][]byte{make([]byte, 3)}, Level: core.IM}}); err == nil {
		t.Error("bad buffer size accepted")
	}
}
