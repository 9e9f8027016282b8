package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// This file implements the descriptor-based collective API: one
// Collective struct describes any of the eight primitives, and exactly
// three entry points consume it — Compile (plan once), Run (one-shot)
// and Submit (asynchronous) — so every execution path — one-shot,
// compiled replay, async, tenant-scoped — funnels through the same
// normalization and validation.
//
// All offsets in a Collective are relative to the arena the call is
// resolved against: the whole per-PE MRAM for a plain Comm, or the
// tenant's carved window for a Tenant session (tenant.go). Resolution
// validates every region against the arena bounds and only then
// translates to absolute MRAM offsets, which is what guarantees tenants
// cannot name — let alone alias — MRAM outside their arena.

// Region is a per-PE MRAM byte range handle [Off, Off+Bytes). Offsets
// are arena-relative (see Collective). For region roles whose size the
// primitive implies (e.g. an AllGather destination is always n× the
// source), Bytes may be left zero; a non-zero Bytes must match the
// implied size exactly, which turns silent footprint mistakes into
// compile errors.
type Region struct {
	Off   int
	Bytes int
}

// At returns a Region at off whose size is implied by the primitive.
func At(off int) Region { return Region{Off: off} }

// Span returns the fully specified Region [off, off+bytes).
func Span(off, bytes int) Region { return Region{Off: off, Bytes: bytes} }

// Collective describes one collective call. The zero value of every
// optional field means "default": Level zero is Auto (the autotuner
// picks the cheapest applicable level), and a Dst/Src region with zero
// Bytes takes the size the primitive implies.
//
// Field use by primitive:
//
//	AlltoAll       Src (bytes/PE), Dst (same size)
//	ReduceScatter  Src (bytes/PE), Dst (Src/n), Elem, Op
//	AllReduce      Src (bytes/PE), Dst (same size), Elem, Op
//	AllGather      Src (contribution), Dst (n×Src)
//	Scatter        Hosts (one buffer per group), Dst (bytes/PE)
//	Gather         Src (bytes/PE); results via CompiledPlan/Future Results
//	Reduce         Src (bytes/PE), Elem, Op; results via Results
//	Broadcast      Hosts (one payload per group), Dst
//
// Hosts buffers are bound by reference: a compiled Scatter/Broadcast
// plan reads their current contents on every Run.
//
// The optimized levels consume Src: for AlltoAll, ReduceScatter,
// AllReduce and Reduce, PR, IM and CM (and Auto whenever it resolves to
// one of them) run PE-assisted reordering, which rotates the blocks of
// Src in place and leaves them rotated. A second Run of the same
// descriptor, or a replay of its CompiledPlan, therefore needs its Src
// rewritten first; over the rotated bytes it computes a different
// result (a CM AlltoAll replayed this way mismatches on every PE).
// Baseline leaves Src intact. Hazard tracking between submitted plans
// counts a consumed Src as written.
type Collective struct {
	// Prim selects the primitive.
	Prim Primitive
	// Dims is the communication-dimension bitmap (e.g. "10" for the
	// x axis of a 2-D hypercube; see DimsString).
	Dims string
	// Src is the per-PE source region (unused for Scatter/Broadcast,
	// whose input is host-side).
	Src Region
	// Dst is the per-PE destination region (unused for Gather/Reduce,
	// whose output is host-side).
	Dst Region
	// Elem and Op configure the reducing primitives (ReduceScatter,
	// AllReduce, Reduce); other primitives ignore them.
	Elem elem.Type
	Op   elem.Op
	// Level selects the optimization level; the zero value is Auto.
	Level Level
	// Algorithm selects the lowering algorithm (algorithm.go); the zero
	// value is AlgoAuto. With an explicit Level, AlgoAuto resolves to
	// AlgoReference (the built-in lowering); with Level Auto the
	// autotuner searches (algorithm x level). An explicit algorithm with
	// Level Auto searches only that algorithm's applicable levels.
	Algorithm Algorithm
	// Hosts carries the host-side payloads of Scatter and Broadcast:
	// one buffer per communication group, in group order. On a
	// cost-only backend Scatter accepts nil (sizes are implied).
	Hosts [][]byte
}

// arena is the per-PE MRAM window a Collective's regions are resolved
// against. base is BankBurstBytes-aligned, so arena-relative alignment
// equals absolute alignment.
type arena struct{ base, size int }

// fullArena is the whole per-PE MRAM: the window of a plain Comm.
func (c *Comm) fullArena() arena { return arena{0, c.hc.sys.MramSize()} }

// checkArenaRegion validates an arena-relative region common to all PEs.
func checkArenaRegion(ar arena, off, n int) error {
	if off < 0 || n < 0 || off+n > ar.size {
		return fmt.Errorf("core: region [%d,%d) exceeds arena size %d", off, off+n, ar.size)
	}
	if off%dram.BankBurstBytes != 0 {
		return fmt.Errorf("core: offset %d not %d-byte aligned", off, dram.BankBurstBytes)
	}
	if n%dram.BankBurstBytes != 0 {
		return fmt.Errorf("core: size %d not a multiple of %d", n, dram.BankBurstBytes)
	}
	return nil
}

// impliedBytes validates an optional explicit region size against the
// size the primitive implies for that role.
func impliedBytes(role string, got, implied int) error {
	if got != 0 && got != implied {
		return fmt.Errorf("core: %s region has %d bytes, want %d (or 0 for the implied size)", role, got, implied)
	}
	return nil
}

// Compile compiles the collective described by d — validation, Auto
// resolution, lowering to schedule IR, charge precomputation — into a
// CompiledPlan ready for repeated Run/Submit. Repeated Compile calls
// with an equal descriptor return the cached plan.
func (c *Comm) Compile(d Collective) (*CompiledPlan, error) {
	return c.compileIn(c.fullArena(), nil, d)
}

// Run compiles (or fetches the cached plan for) d and executes one
// replay, returning the run's cost breakdown. Rooted primitives
// (Gather, Reduce) leave their results on the plan: use Compile and
// CompiledPlan.Results to read them.
func (c *Comm) Run(d Collective) (cost.Breakdown, error) {
	cp, err := c.Compile(d)
	if err != nil {
		return cost.Breakdown{}, err
	}
	return cp.Run()
}

// Submit compiles (or fetches the cached plan for) d and enqueues one
// asynchronous execution, returning its Future. See CompiledPlan.Submit
// for queue and hazard-ordering semantics.
func (c *Comm) Submit(d Collective) (*Future, error) {
	cp, err := c.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.Submit(), nil
}

// AutoLevelOf returns the concrete level the Auto pseudo-level resolves
// to for descriptor d (whatever d.Level says), under d's algorithm
// constraint.
func (c *Comm) AutoLevelOf(d Collective) (Level, error) {
	bytesPerPE := d.Src.Bytes
	if d.Prim == Scatter || d.Prim == Broadcast {
		bytesPerPE = d.Dst.Bytes
	}
	inPlace := d.Prim == AlltoAll && d.Src.Off == d.Dst.Off
	dec, err := c.autoResolve(d.Prim, d.Dims, bytesPerPE, d.Elem, d.Op, d.Algorithm, inPlace)
	if err != nil {
		return 0, err
	}
	return dec.lvl, nil
}

// AutoResolveOf returns the (algorithm, level) pair descriptor d
// resolves to: the autotuner's pick where either axis is Auto, the
// explicit value (with AlgoAuto mapped to AlgoReference, and the level
// mapped to its effective value) where it is not. This is exactly what
// Compile would resolve d to, without compiling anything.
func (c *Comm) AutoResolveOf(d Collective) (Algorithm, Level, error) {
	if d.Level != Auto {
		alg := d.Algorithm
		if alg == AlgoAuto {
			alg = AlgoReference
		}
		return alg, EffectiveLevel(d.Prim, d.Level), nil
	}
	bytesPerPE := d.Src.Bytes
	if d.Prim == Scatter || d.Prim == Broadcast {
		bytesPerPE = d.Dst.Bytes
	}
	inPlace := d.Prim == AlltoAll && d.Src.Off == d.Dst.Off
	dec, err := c.autoResolve(d.Prim, d.Dims, bytesPerPE, d.Elem, d.Op, d.Algorithm, inPlace)
	if err != nil {
		return 0, 0, err
	}
	return dec.algo, dec.lvl, nil
}

// compileIn resolves d against the arena and compiles it; owner is the
// tenant the resulting plan is charged to (nil for a plain Comm). The
// single funnel behind Compile/Run/Submit.
func (c *Comm) compileIn(ar arena, owner *Tenant, d Collective) (*CompiledPlan, error) {
	spec, err := c.specIn(ar, d)
	if err != nil {
		return nil, err
	}
	cp := c.compiledPlan(spec)
	if err := cp.adopt(owner); err != nil {
		return nil, err
	}
	return cp, nil
}

// CompileSequence compiles ds as one fused multi-collective plan: the
// members are validated and lowered in order, their schedules
// concatenate, and the fusion pipeline (fuse.go) rewrites across the
// member boundaries — interior synchronizations collapse, an inverse
// rotate/unrotate pair spanning two members cancels, back-to-back
// transfer epochs coalesce. The resulting plan Runs/Submits as a single
// unit whose functional result is byte-identical to running the members
// serially; with fusion off the sequence executes the members' schedules
// verbatim. Rooted primitives (Gather, Reduce) cannot join a sequence —
// their results live on the host; compile them separately.
func (c *Comm) CompileSequence(ds ...Collective) (*CompiledPlan, error) {
	return c.compileSequenceIn(c.fullArena(), nil, ds)
}

// compileSequenceIn is CompileSequence resolved against an arena and an
// owning tenant — the sequence analogue of compileIn.
func (c *Comm) compileSequenceIn(ar arena, owner *Tenant, ds []Collective) (*CompiledPlan, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("core: empty collective sequence")
	}
	if len(ds) == 1 {
		return c.compileIn(ar, owner, ds[0])
	}
	specs := make([]planSpec, len(ds))
	for i, d := range ds {
		if d.Prim == Gather || d.Prim == Reduce {
			return nil, fmt.Errorf("sequence[%d]: %s: rooted primitives cannot join a fused sequence (their results live on the host); compile them separately",
				i, d.Prim.LongName())
		}
		sp, err := c.specIn(ar, d)
		if err != nil {
			return nil, fmt.Errorf("sequence[%d]: %w", i, err)
		}
		specs[i] = sp
	}
	cp := c.compiledSequence(specs)
	if err := cp.adopt(owner); err != nil {
		return nil, err
	}
	return cp, nil
}

// specIn validates d against the arena, resolves Auto, and returns the
// plan spec (cache key, MRAM footprint, lowering closure) without
// compiling anything — the shared front half of compileIn and
// compileSequenceIn.
func (c *Comm) specIn(ar arena, d Collective) (spec planSpec, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", d.Prim.LongName(), err)
		}
	}()
	if d.Hosts != nil && !hostInput(d.Prim) {
		return planSpec{}, fmt.Errorf("core: takes no host payload (Hosts must be nil)")
	}
	if hostInput(d.Prim) && d.Src != (Region{}) {
		return planSpec{}, fmt.Errorf("core: input is host-side (Hosts), not a Src region")
	}
	if (d.Prim == Gather || d.Prim == Reduce) && d.Dst != (Region{}) {
		return planSpec{}, fmt.Errorf("core: output is host-side (Results), not a Dst region")
	}
	switch d.Prim {
	case AlltoAll:
		return c.specAlltoAll(ar, d)
	case ReduceScatter:
		return c.specReduceScatter(ar, d)
	case AllReduce:
		return c.specAllReduce(ar, d)
	case AllGather:
		return c.specAllGather(ar, d)
	case Scatter:
		return c.specScatter(ar, d)
	case Gather:
		return c.specGather(ar, d)
	case Reduce:
		return c.specReduce(ar, d)
	case Broadcast:
		return c.specBroadcast(ar, d)
	default:
		return planSpec{}, fmt.Errorf("core: unknown primitive %v", d.Prim)
	}
}

// resolveAlgoLevel resolves the descriptor's (Algorithm, Level) pair to
// concrete values: an explicit level keeps the pre-algorithm fast path
// (AlgoAuto maps to AlgoReference — no search, identical plans and
// costs); Level Auto hands the pair to the autotuner, constrained to
// d.Algorithm when that is explicit. The returned algorithm still needs
// a checkAlgo applicability pass once the caller has built the AlgoEnv.
func (c *Comm) resolveAlgoLevel(d Collective, bytesPerPE int, inPlace bool) (Algorithm, Level, error) {
	if d.Level != Auto {
		alg := d.Algorithm
		if alg == AlgoAuto {
			alg = AlgoReference
		}
		return alg, EffectiveLevel(d.Prim, d.Level), nil
	}
	dec, err := c.autoResolve(d.Prim, d.Dims, bytesPerPE, d.Elem, d.Op, d.Algorithm, inPlace)
	if err != nil {
		return 0, 0, err
	}
	return dec.algo, dec.lvl, nil
}

func (c *Comm) specAlltoAll(ar arena, d Collective) (planSpec, error) {
	m := d.Src.Bytes
	if err := impliedBytes("Dst", d.Dst.Bytes, m); err != nil {
		return planSpec{}, err
	}
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Src.Off, m); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Dst.Off, m); err != nil {
		return planSpec{}, err
	}
	inPlace := d.Src.Off == d.Dst.Off
	if overlap(d.Src.Off, m, d.Dst.Off, m) && !inPlace {
		return planSpec{}, fmt.Errorf("core: src [%d,%d) and dst [%d,%d) overlap",
			d.Src.Off, d.Src.Off+m, d.Dst.Off, d.Dst.Off+m)
	}
	s, err := blockSize(m, p.n)
	if err != nil {
		return planSpec{}, err
	}
	alg, eff, err := c.resolveAlgoLevel(d, m, inPlace)
	if err != nil {
		return planSpec{}, err
	}
	if err := checkInPlace(AlltoAll, eff, inPlace); err != nil {
		return planSpec{}, err
	}
	srcOff, dstOff := ar.base+d.Src.Off, ar.base+d.Dst.Off
	env := &AlgoEnv{c: c, p: p, prim: AlltoAll, eff: eff, srcOff: srcOff, dstOff: dstOff, m: m, s: s}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: AlltoAll, dims: d.Dims, srcOff: srcOff, dstOff: dstOff, bytes: m, lvl: eff, algo: alg}
	var regs planRegions
	regs.srcRegion(srcOff, m, eff >= PR)
	regs.write(dstOff, m)
	return planSpec{key: key, regs: regs, lower: func(*CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerAlltoAll(p, srcOff, dstOff, s, eff)
		})
	}}, nil
}

func (c *Comm) specReduceScatter(ar arena, d Collective) (planSpec, error) {
	m := d.Src.Bytes
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	if err := checkElem(d.Elem, d.Op); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Src.Off, m); err != nil {
		return planSpec{}, err
	}
	s, err := blockSize(m, p.n)
	if err != nil {
		return planSpec{}, err
	}
	if err := impliedBytes("Dst", d.Dst.Bytes, s); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Dst.Off, s); err != nil {
		return planSpec{}, err
	}
	if overlap(d.Src.Off, m, d.Dst.Off, s) {
		return planSpec{}, fmt.Errorf("core: src and dst regions overlap")
	}
	alg, eff, err := c.resolveAlgoLevel(d, m, false)
	if err != nil {
		return planSpec{}, err
	}
	srcOff, dstOff := ar.base+d.Src.Off, ar.base+d.Dst.Off
	env := &AlgoEnv{c: c, p: p, prim: ReduceScatter, eff: eff, srcOff: srcOff, dstOff: dstOff, m: m, s: s, t: d.Elem, op: d.Op}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: ReduceScatter, dims: d.Dims, srcOff: srcOff, dstOff: dstOff, bytes: m, elemType: d.Elem, op: d.Op, lvl: eff, algo: alg}
	var regs planRegions
	regs.srcRegion(srcOff, m, eff >= PR)
	regs.write(dstOff, s)
	return planSpec{key: key, regs: regs, lower: func(*CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerReduceScatter(p, srcOff, dstOff, s, d.Elem, d.Op, eff)
		})
	}}, nil
}

func (c *Comm) specAllReduce(ar arena, d Collective) (planSpec, error) {
	m := d.Src.Bytes
	if err := impliedBytes("Dst", d.Dst.Bytes, m); err != nil {
		return planSpec{}, err
	}
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	if err := checkElem(d.Elem, d.Op); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Src.Off, m); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Dst.Off, m); err != nil {
		return planSpec{}, err
	}
	if overlap(d.Src.Off, m, d.Dst.Off, m) {
		return planSpec{}, fmt.Errorf("core: src [%d,%d) and dst [%d,%d) overlap",
			d.Src.Off, d.Src.Off+m, d.Dst.Off, d.Dst.Off+m)
	}
	s, err := blockSize(m, p.n)
	if err != nil {
		return planSpec{}, err
	}
	alg, eff, err := c.resolveAlgoLevel(d, m, false)
	if err != nil {
		return planSpec{}, err
	}
	srcOff, dstOff := ar.base+d.Src.Off, ar.base+d.Dst.Off
	env := &AlgoEnv{c: c, p: p, prim: AllReduce, eff: eff, srcOff: srcOff, dstOff: dstOff, m: m, s: s, t: d.Elem, op: d.Op}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: AllReduce, dims: d.Dims, srcOff: srcOff, dstOff: dstOff, bytes: m, elemType: d.Elem, op: d.Op, lvl: eff, algo: alg}
	var regs planRegions
	regs.srcRegion(srcOff, m, eff >= PR)
	regs.write(dstOff, m)
	return planSpec{key: key, regs: regs, lower: func(*CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerAllReduce(p, srcOff, dstOff, s, d.Elem, d.Op, eff)
		})
	}}, nil
}

func (c *Comm) specAllGather(ar arena, d Collective) (planSpec, error) {
	s := d.Src.Bytes
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	if err := impliedBytes("Dst", d.Dst.Bytes, p.n*s); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Src.Off, s); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Dst.Off, p.n*s); err != nil {
		return planSpec{}, err
	}
	if overlap(d.Src.Off, s, d.Dst.Off, p.n*s) {
		return planSpec{}, fmt.Errorf("core: src and dst regions overlap")
	}
	alg, eff, err := c.resolveAlgoLevel(d, s, false)
	if err != nil {
		return planSpec{}, err
	}
	srcOff, dstOff := ar.base+d.Src.Off, ar.base+d.Dst.Off
	env := &AlgoEnv{c: c, p: p, prim: AllGather, eff: eff, srcOff: srcOff, dstOff: dstOff, m: s, s: s}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: AllGather, dims: d.Dims, srcOff: srcOff, dstOff: dstOff, bytes: s, lvl: eff, algo: alg}
	var regs planRegions
	regs.read(srcOff, s)
	regs.write(dstOff, p.n*s)
	return planSpec{key: key, regs: regs, lower: func(*CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerAllGather(p, srcOff, dstOff, s, eff)
		})
	}}, nil
}

func (c *Comm) specGather(ar arena, d Collective) (planSpec, error) {
	s := d.Src.Bytes
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Src.Off, s); err != nil {
		return planSpec{}, err
	}
	alg, eff, err := c.resolveAlgoLevel(d, s, false)
	if err != nil {
		return planSpec{}, err
	}
	srcOff := ar.base + d.Src.Off
	env := &AlgoEnv{c: c, p: p, prim: Gather, eff: eff, srcOff: srcOff, m: s, s: s}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: Gather, dims: d.Dims, srcOff: srcOff, bytes: s, lvl: eff, algo: alg}
	var regs planRegions
	regs.read(srcOff, s)
	return planSpec{key: key, regs: regs, lower: func(cp *CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerGather(p, srcOff, s, eff, cp)
		})
	}}, nil
}

func (c *Comm) specReduce(ar arena, d Collective) (planSpec, error) {
	m := d.Src.Bytes
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	if err := checkElem(d.Elem, d.Op); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Src.Off, m); err != nil {
		return planSpec{}, err
	}
	s, err := blockSize(m, p.n)
	if err != nil {
		return planSpec{}, err
	}
	alg, eff, err := c.resolveAlgoLevel(d, m, false)
	if err != nil {
		return planSpec{}, err
	}
	srcOff := ar.base + d.Src.Off
	env := &AlgoEnv{c: c, p: p, prim: Reduce, eff: eff, srcOff: srcOff, m: m, s: s, t: d.Elem, op: d.Op}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: Reduce, dims: d.Dims, srcOff: srcOff, bytes: m, elemType: d.Elem, op: d.Op, lvl: eff, algo: alg}
	var regs planRegions
	regs.srcRegion(srcOff, m, eff >= PR)
	return planSpec{key: key, regs: regs, lower: func(cp *CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerReduce(p, srcOff, s, d.Elem, d.Op, eff, cp)
		})
	}}, nil
}

func (c *Comm) specScatter(ar arena, d Collective) (planSpec, error) {
	s := d.Dst.Bytes
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	if s%dram.BankBurstBytes != 0 {
		return planSpec{}, fmt.Errorf("core: Dst bytes %d not a multiple of %d", s, dram.BankBurstBytes)
	}
	if err := checkArenaRegion(ar, d.Dst.Off, s); err != nil {
		return planSpec{}, err
	}
	bufs := d.Hosts
	if bufs == nil && !c.backend.Functional() {
		// Cost-only dry run: sizes are fully determined by the plan.
	} else {
		if len(bufs) != len(p.groups) {
			return planSpec{}, fmt.Errorf("core: %d host buffers for %d groups", len(bufs), len(p.groups))
		}
		for g, b := range bufs {
			if len(b) != p.n*s {
				return planSpec{}, fmt.Errorf("core: host buffer %d has %d bytes, want %d", g, len(b), p.n*s)
			}
		}
	}
	alg, eff, err := c.resolveAlgoLevel(d, s, false)
	if err != nil {
		return planSpec{}, err
	}
	dstOff := ar.base + d.Dst.Off
	env := &AlgoEnv{c: c, p: p, prim: Scatter, eff: eff, dstOff: dstOff, m: s, s: s, hosts: bufs}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: Scatter, dims: d.Dims, dstOff: dstOff, bytes: s, lvl: eff, algo: alg}
	var regs planRegions
	regs.write(dstOff, s)
	return planSpec{key: key, regs: regs, hostBufs: true, lower: func(*CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerScatter(p, bufs, dstOff, s, eff)
		})
	}}, nil
}

func (c *Comm) specBroadcast(ar arena, d Collective) (planSpec, error) {
	p, err := c.plan(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	bufs := d.Hosts
	if len(bufs) != len(p.groups) {
		return planSpec{}, fmt.Errorf("core: %d host buffers for %d groups", len(bufs), len(p.groups))
	}
	s := -1
	for g, b := range bufs {
		if s == -1 {
			s = len(b)
		} else if len(b) != s {
			return planSpec{}, fmt.Errorf("core: host buffer %d has %d bytes, want %d", g, len(b), s)
		}
	}
	if err := impliedBytes("Dst", d.Dst.Bytes, s); err != nil {
		return planSpec{}, err
	}
	if err := checkArenaRegion(ar, d.Dst.Off, s); err != nil {
		return planSpec{}, err
	}
	// Broadcast has a single implementation level (§ VIII-B); the
	// algorithm axis still applies (AlgoAuto resolves to the reference
	// driver broadcast, alternatives are explicit opt-ins).
	alg := d.Algorithm
	if alg == AlgoAuto {
		alg = AlgoReference
	}
	dstOff := ar.base + d.Dst.Off
	env := &AlgoEnv{c: c, p: p, prim: Broadcast, eff: Baseline, dstOff: dstOff, m: s, s: s, hosts: bufs}
	if err := checkAlgo(alg, env); err != nil {
		return planSpec{}, err
	}
	key := planKey{prim: Broadcast, dims: d.Dims, dstOff: dstOff, bytes: s, lvl: Baseline, algo: alg}
	var regs planRegions
	regs.write(dstOff, s)
	return planSpec{key: key, regs: regs, hostBufs: true, lower: func(*CompiledPlan) *Schedule {
		return algoLower(alg, env, func() *Schedule {
			return c.lowerBroadcast(p, bufs, dstOff, s)
		})
	}}, nil
}
