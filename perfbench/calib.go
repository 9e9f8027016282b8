package main

import (
	"math/rand"
	"sort"
	"time"
)

// Host speed on a shared virtual machine drifts with what the other
// tenants of the physical host run. On the 2-vCPU VM the benchmark was
// built on, a fixed single-threaded kernel ran up to 60% faster in one
// 200-ms chunk than in another, and the benchmark's host medians moved
// by up to a third between sets of runs made minutes apart. Stolen time
// was under 5%, so CPU-time clocks do not remove the drift.
//
// The benchmark therefore measures the host's speed in the same run:
// between its calls into the program it runs a fixed reference kernel in
// short bursts, and it reports every end-to-end host time in reference
// seconds, the measured time scaled by refNominal over the run's median
// burst. A change to the program moves the measured time and not the
// bursts; a change in the host's speed moves both. The raw values are
// printed beside the scaled ones.

const (
	// calInterval is the host time between the starts of two bursts.
	calInterval = 20 * time.Millisecond
	// refNominal is the median burst time, in seconds, on the VM the
	// benchmark was built on: scaled and raw times agree there.
	refNominal = 0.7e-3
)

// refKernel is the fixed reference work: a map update loop, a sort and
// a 1 MiB copy, the kinds of work the simulator's own host time is made
// of.
type refKernel struct {
	keys     []uint64
	m        map[uint64]int
	fs, fsrc []float64
	dst, src []byte
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{keys: make([]uint64, 4096), m: make(map[uint64]int, 4096),
		fs: make([]float64, 2048), fsrc: make([]float64, 2048),
		dst: make([]byte, 1<<20), src: make([]byte, 1<<20)}
	for i := range k.keys {
		k.keys[i] = rng.Uint64()
	}
	for i := range k.fsrc {
		k.fsrc[i] = rng.Float64()
	}
	rng.Read(k.src)
	return k
}

// run does one burst's work and returns a value derived from it, so the
// work cannot be optimised away.
func (k *refKernel) run() int {
	clear(k.m)
	for i, key := range k.keys {
		k.m[key] += i
		k.m[key>>7] ^= i
	}
	copy(k.fs, k.fsrc)
	sort.Float64s(k.fs)
	copy(k.dst, k.src)
	return len(k.m) + int(k.fs[0]*1e3) + int(k.dst[len(k.dst)-1])
}

// calibrator runs the reference bursts. Its zero value is off: tick does
// nothing until start.
type calibrator struct {
	k      *refKernel
	next   time.Time
	bursts []float64 // seconds per burst
	spent  float64   // host seconds spent in bursts
	sink   int
}

// hostCal is the run's calibrator. The workloads call hostCal.tick
// between their calls into the program, never inside a timed interval.
var hostCal calibrator

func (c *calibrator) start() {
	if c.k == nil {
		c.k = newRefKernel()
	}
	c.next = time.Time{}
	c.bursts = c.bursts[:0]
	c.spent = 0
}

// stop turns the bursts off; the traced phase reports no scaled time.
func (c *calibrator) stop() { c.k = nil }

// tick runs one burst when calInterval has passed since the last one.
func (c *calibrator) tick() {
	if c.k == nil {
		return
	}
	s := time.Now()
	if s.Before(c.next) {
		return
	}
	c.sink += c.k.run()
	d := time.Since(s).Seconds()
	c.bursts = append(c.bursts, d)
	c.spent += d
	c.next = s.Add(calInterval)
}

// scale returns refNominal over the median burst, the factor that turns
// this run's host seconds into reference seconds, and the burst count.
func (c *calibrator) scale() (float64, int) {
	if len(c.bursts) == 0 {
		return 1, 0
	}
	return refNominal / percentile(sorted(c.bursts), 0.5), len(c.bursts)
}
