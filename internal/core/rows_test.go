package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// rowModel is one expanded chain of the closed-form row checks.
type rowModel struct {
	name  string
	model mrm.KiBaMRM
	delta float64
}

// rowModels are the paper's Fig. 7 (one well), Fig. 8 at two steps and
// without diffusion (k = 0), Fig. 10, and two charging models.
func rowModels(t *testing.T) []rowModel {
	t.Helper()
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return []rowModel{
		{"fig7 delta=100", onOffModel(t, 1, 0), 100},
		{"fig8 delta=100", onOffModel(t, 0.625, 4.5e-5), 100},
		{"fig8 delta=50", onOffModel(t, 0.625, 4.5e-5), 50},
		{"fig8 k=0", onOffModel(t, 0.625, 0), 100},
		{"fig10 delta=10mAh", wirelessModel(t, simple), units.MilliampHours(10).AmpereSeconds()},
		{"two-well charging", twoWellChargingModel(t), 300},
		{"gateway", gatewayModel(t), 270},
	}
}

// digestQ hashes Q*'s rows: every entry's row, column and value bits,
// in the order Row visits them.
func digestQ(e *Expanded) string {
	h := sha256.New()
	var buf [24]byte
	var r int
	visit := func(col int, v float64) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r))
		binary.LittleEndian.PutUint64(buf[8:], uint64(col))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for r = 0; r < e.NumStates(); r++ {
		e.Row(r, visit)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRowsPinned pins, on rowModels, a digest of Q*'s rows, its nonzero
// count, and the bits of the mean lifetime to the values of the earlier
// construction, which assembled Q* as a sorted coordinate list and kept
// it as a CSR matrix. The charging models cover the rows referenceQ
// does not.
func TestRowsPinned(t *testing.T) {
	pins := map[string]struct {
		digest string
		nnz    int
		mean   uint64
	}{
		"fig7 delta=100":    {"12ec49458f0b5687", 360, 0x40cce3d5555562e3},
		"fig8 delta=100":    {"669a7caa4b0430d7", 7524, 0x40c6b49b9b1cb510},
		"fig8 delta=50":     {"21c392a71c03cf8d", 29628, 0x40c73bddde901138},
		"fig8 k=0":          {"db85c7b107ad0337", 6300, 0x40c1e75555555a98},
		"fig10 delta=10mAh": {"36ea2e61df21518e", 16215, 0x40e7da6e91343dc9},
		"two-well charging": {"2ae294c931e8b31f", 1028, 0x40ceddbaee8e1c33},
		"gateway":           {"dec33e540530ae84", 7144, 0x4123e8687cf279c0},
	}
	for _, m := range rowModels(t) {
		t.Run(m.name, func(t *testing.T) {
			e, err := Build(m.model, m.delta, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := pins[m.name]
			if got := digestQ(e); got != want.digest || e.NNZ() != want.nnz {
				t.Errorf("Q* digest %s with %d nonzeros, want %s with %d", got, e.NNZ(), want.digest, want.nnz)
			}
			mean, err := e.MeanLifetime(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(mean) != want.mean {
				t.Errorf("mean %v (%#x), want %v (%#x)", mean, math.Float64bits(mean), math.Float64frombits(want.mean), want.mean)
			}
		})
	}
}

// FuzzRowsMatchReference builds random discharge-only models — up to
// four workload states with random rates and currents, a one- or
// two-well battery with or without diffusion, and a random step — and
// requires Row to equal referenceQ entry by entry.
func FuzzRowsMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(4), uint8(3), true)
	f.Add(int64(2), uint8(1), uint8(2), uint8(0), false)
	f.Add(int64(3), uint8(4), uint8(7), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, states, m1, m2 uint8, diffusion bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(states)%4
		var b ctmc.Builder
		for i := 0; i < n; i++ {
			b.State(fmt.Sprint(i))
			for j := 0; j < n; j++ {
				if j != i && rng.Intn(2) == 0 {
					b.Transition(fmt.Sprint(i), fmt.Sprint(j), math.Ldexp(1+rng.Float64(), rng.Intn(9)-6))
				}
			}
		}
		chain, err := b.Build()
		if err != nil {
			t.Skip(err)
		}
		currents := make([]float64, n)
		for i := range currents {
			if rng.Intn(4) > 0 {
				currents[i] = rng.Float64()
			}
		}
		// The wells hold l1 and l2 steps of Δ: c·C = l1·Δ, (1−c)·C = l2·Δ.
		l1, l2 := 2+int(m1)%12, int(m2)%12
		delta := 10 + 200*rng.Float64()
		k := 0.0
		if diffusion {
			k = 1e-4 * rng.Float64()
		}
		m := mrm.KiBaMRM{
			Workload: chain,
			Currents: currents,
			Initial:  chain.PointDistribution(rng.Intn(n)),
			Battery:  kibam.Params{Capacity: float64(l1+l2) * delta, C: float64(l1) / float64(l1+l2), K: k},
		}
		e, err := Build(m, delta, Options{})
		if err != nil {
			t.Skip(err)
		}
		matchesReference(t, e, m, delta)
	})
}
