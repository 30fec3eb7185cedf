package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// assertFillSorted bulk-loads xs into w and demands the sorted window
// equal sort.Float64s over the same trailing window bit for bit.
func assertFillSorted(t *testing.T, w *WindowedECDF, xs []float64) {
	t.Helper()
	if err := w.Fill(xs); err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), windowOf(xs, w.Cap())...)
	sort.Float64s(want)
	got := w.Values()
	if len(got) != len(want) {
		t.Fatalf("Fill kept %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sorted[%d] = %v (bits %#x), sort.Float64s %v (bits %#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// dwellStream draws n samples from draw, each level held for a
// geometric number of slots with the given mean — the shape of a
// generated price trace.
func dwellStream(rng *rand.Rand, n, dwell int, draw func() float64) []float64 {
	xs := make([]float64, n)
	cur := draw()
	for i := range xs {
		if i > 0 && rng.Float64() < 1/float64(dwell) {
			cur = draw()
		}
		xs[i] = cur
	}
	return xs
}

// TestFillSortedProperty: the run-sorting bulk load equals
// sort.Float64s on long runs, no runs, a single value, repeated levels
// across runs, and mixed ±0 — and long runs really take the run path.
func TestFillSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	negZero := math.Copysign(0, -1)
	const capacity = 500
	w, err := NewWindowedECDF(capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	continuous := func() float64 { return rng.NormFloat64() }
	levels := func() float64 { return float64(rng.Intn(9)-4) / 8 } // revisits levels, hits +0
	zeros := func() float64 {
		if rng.Intn(2) == 0 {
			return negZero
		}
		return float64(rng.Intn(3))
	}
	for trial := 0; trial < 50; trial++ {
		for _, dwell := range []int{1, 2, 18, 72} {
			for _, draw := range []func() float64{continuous, levels, zeros} {
				for _, n := range []int{1, 3, capacity / 2, capacity, 2 * capacity} {
					assertFillSorted(t, w, dwellStream(rng, n, dwell, draw))
				}
			}
		}
	}
	single := make([]float64, capacity)
	for i := range single {
		single[i] = 0.03
	}
	assertFillSorted(t, w, single)
	assertFillSorted(t, w, []float64{0, negZero, 0, negZero, negZero, 0, 1, 1, 1, 1, 1, 1, 1, 1})

	fresh, err := NewWindowedECDF(capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertFillSorted(t, fresh, dwellStream(rng, capacity, 18, continuous))
	if len(fresh.runs) == 0 {
		t.Error("a dwell-18 window did not take the run-sorting path")
	}
}

// FuzzFillSorted fuzzes the bulk load against sort.Float64s: each byte
// yields one level (including −0 and +0) repeated 1–15 times.
func FuzzFillSorted(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x12, 0xfe}, uint8(16))
	f.Add([]byte{0x80, 0x81, 0x80, 0x81}, uint8(64))
	f.Add([]byte{0x8e, 0x8e, 0x8e}, uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, capacity uint8) {
		var xs []float64
		for _, b := range raw {
			v := float64(int(b>>4)-8) / 4
			if b>>4 == 8 && b&1 == 1 {
				v = math.Copysign(0, -1)
			}
			for j := 0; j <= int(b&0x0e); j++ {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			t.Skip()
		}
		w, err := NewWindowedECDF(int(capacity)+1, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertFillSorted(t, w, xs)
	})
}
