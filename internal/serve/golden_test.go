package serve

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/pidcomm"
)

// pickFingerprint runs the canonical scenario and hashes the float bits
// of every completed future's placed (start, end) window, in completion
// order. Any change to a pick or to a timeline placement changes it.
func pickFingerprint(t *testing.T, pol pidcomm.SchedPolicy, rho float64, n int) (uint64, int) {
	t.Helper()
	cfg := mustScenario(t, pol, rho, n)
	h := fnv.New64a()
	var buf [16]byte
	steps := 0
	observeStep = func(f *pidcomm.Future) {
		if f.Err() != nil {
			return
		}
		s, e := f.Window()
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(float64(s)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(float64(e)))
		h.Write(buf[:])
		steps++
	}
	defer func() { observeStep = nil }()
	mustRun(t, cfg)
	return h.Sum64(), steps
}

// TestGoldenPickFingerprint pins the exact pick sequence and placements
// of the serving scenario under the lookahead, EDF and WFQ policies at
// ρ 0.9, plus lookahead overloaded at ρ 1.2 (deep candidate windows).
// Scheduler and timeline optimisations must be exact and leave these
// hashes alone; only a deliberate change to a policy or to placement
// re-records them.
func TestGoldenPickFingerprint(t *testing.T) {
	for _, tc := range []struct {
		pol   pidcomm.SchedPolicy
		rho   float64
		hash  uint64
		steps int
	}{
		{pidcomm.SchedLookahead, 0.9, 0xa367ade609b1556d, 6090},
		{pidcomm.SchedEDF, 0.9, 0x19be51af858db05b, 6090},
		{pidcomm.SchedWFQ, 0.9, 0xbf4f1f4ed59762a1, 6090},
		{pidcomm.SchedLookahead, 1.2, 0x6257235b3f593f9c, 6060},
	} {
		got, steps := pickFingerprint(t, tc.pol, tc.rho, 4000)
		if got != tc.hash || steps != tc.steps {
			t.Errorf("%v at ρ %v: fingerprint %#x over %d futures, want %#x over %d",
				tc.pol, tc.rho, got, steps, tc.hash, tc.steps)
		}
	}
}
