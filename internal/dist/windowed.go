package dist

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// WindowedECDF maintains the empirical distribution of the most recent
// `capacity` observations of a stream — the rolling two-month price
// window of Fig. 1's price monitor — incrementally. Where NewEmpirical
// re-sorts the whole window on every slot tick (O(n log n) ≈ 17k·log 17k
// comparisons for the default 61-day window at 5-minute slots), Push
// performs one binary-search insert plus one binary-search evict over a
// sorted slice (two O(log n) searches and two memmoves), and the order
// statistics backing CDF/Quantile/Support are always current.
//
// The derived aggregates — the prefix-sum array used by PartialMean,
// the cached mean/variance, and the PDF histogram — are rebuilt lazily
// on first use after a mutation, with the exact same left-to-right
// summation order as NewEmpirical. That choice is deliberate: updating
// a prefix sum incrementally in floating point would accumulate
// rounding drift relative to a fresh rebuild, and the acceptance
// contract for this type is *element-identical* results (not merely
// approximately equal) against NewEmpirical over the same window, so
// seeded runs are bit-for-bit unchanged by the fast path.
//
// A WindowedECDF is not safe for concurrent use. Until the first Push
// or Fill it holds no samples and the Dist methods panic; callers gate
// on N() > 0 (the bidding client only consults the monitor after
// ingesting at least one quote).
type WindowedECDF struct {
	capacity int
	ring     []float64 // arrival-order storage, len == capacity
	head     int       // ring index of the oldest sample
	n        int       // live sample count, ≤ capacity

	sorted []float64  // the n live samples, sorted ascending
	runs   []valueRun // Fill's pooled run buffer, see sortRuns

	// Lazily rebuilt aggregates. Each family carries its own dirty
	// flag (every mutation sets all three) so a quote path that only
	// needs partial means — the Prop. 4/5 grid touches CDF, Quantile,
	// and PartialMean but never PDF or the moments — pays for exactly
	// one O(n) prefix pass per slot, not the histogram scan and the
	// two-pass variance it used to drag along. All rebuild buffers
	// (prefix, bins, counts, dens) are pooled: allocated once at the
	// window's high-water mark and reused, so the steady-state tick
	// allocates nothing.
	dirtyPrefix  bool
	dirtyMoments bool
	dirtyHist    bool
	prefix       []float64
	mean         float64
	vari         float64
	bins         []float64
	counts       []int
	dens         []float64
	nbins        int // histogram bin request for lazy rebuilds; ≤0 = sqrt rule
}

// NewWindowedECDF returns an empty monitor over a window of the given
// capacity. nbins configures the PDF histogram exactly as in
// NewEmpirical (≤ 0 selects the square-root rule at rebuild time).
func NewWindowedECDF(capacity, nbins int) (*WindowedECDF, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: windowed ECDF capacity %d < 1", ErrBadParam, capacity)
	}
	return &WindowedECDF{
		capacity:     capacity,
		ring:         make([]float64, capacity),
		sorted:       make([]float64, 0, capacity),
		nbins:        nbins,
		dirtyPrefix:  true,
		dirtyMoments: true,
		dirtyHist:    true,
	}, nil
}

// N reports the number of live samples (≤ Cap).
func (w *WindowedECDF) N() int { return w.n }

// Cap reports the window capacity.
func (w *WindowedECDF) Cap() int { return w.capacity }

// Push ingests one observation, evicting the oldest when the window is
// full. Cost: two binary searches plus two memmoves over the sorted
// slice — O(n) bytes moved but no comparisons beyond the searches,
// which in practice is ~100× cheaper than the full re-sort it replaces.
func (w *WindowedECDF) Push(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: empirical sample contains %v", ErrBadParam, x)
	}
	if w.n == w.capacity {
		old := w.ring[w.head]
		w.ring[w.head] = x
		w.head++
		if w.head == w.capacity {
			w.head = 0
		}
		// Evict exactly one copy of the oldest value. searchGE returns
		// the first index i with sorted[i] >= old; the value is
		// guaranteed present, so sorted[i] == old.
		i := searchGE(w.sorted, old)
		copy(w.sorted[i:], w.sorted[i+1:])
		w.sorted = w.sorted[:w.n-1]
		w.n--
	} else {
		tail := w.head + w.n
		if tail >= w.capacity {
			tail -= w.capacity
		}
		w.ring[tail] = x
	}
	// Sorted insert of the newcomer.
	i := searchGE(w.sorted, x)
	w.sorted = w.sorted[:w.n+1]
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = x
	w.n++
	w.dirtyPrefix, w.dirtyMoments, w.dirtyHist = true, true, true
	return nil
}

// Fill replaces the window contents with the trailing min(len(xs), Cap)
// values of xs in one bulk load. It is the resync path: initial
// warm-up, and recovery after a gap too large for per-slot pushes to be
// worth their memmoves.
//
// A price trace holds each level for many slots (the generator's
// geometric dwell, mean 18 slots), so the two-month window is ~1k runs
// of bit-identical values rather than 17.5k independent samples. Fill
// collapses adjacent repeats into (value, count) runs in one O(n) pass,
// sorts the runs, and expands them: O(n + k log k) for k runs instead
// of sort.Float64s' O(n log n). The result is element-identical to
// sort.Float64s. Only ±0 compare equal without being bit-identical, so
// a window holding both signs of zero, or one whose runs are not much
// fewer than its samples (an i.i.d. trace), takes sort.Float64s.
func (w *WindowedECDF) Fill(xs []float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("%w: empirical distribution needs at least one sample", ErrBadParam)
	}
	if len(xs) > w.capacity {
		xs = xs[len(xs)-w.capacity:]
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: empirical sample contains %v", ErrBadParam, x)
		}
	}
	w.n = copy(w.ring, xs)
	w.head = 0
	w.sorted = w.sorted[:w.n]
	if !w.sortRuns(xs) {
		copy(w.sorted, xs)
		sort.Float64s(w.sorted)
	}
	w.dirtyPrefix, w.dirtyMoments, w.dirtyHist = true, true, true
	return nil
}

// fillRunRatio is how much fewer runs than samples Fill needs before
// sorting runs beats sorting samples.
const fillRunRatio = 4

// valueRun is a maximal stretch of bit-identical adjacent samples.
type valueRun struct {
	v float64
	n int
}

// sortRuns writes xs sorted into w.sorted by sorting its runs, and
// reports false, leaving w.sorted untouched, when xs has too many runs
// or mixes −0 with +0.
func (w *WindowedECDF) sortRuns(xs []float64) bool {
	maxRuns := len(xs) / fillRunRatio
	if cap(w.runs) < maxRuns {
		w.runs = make([]valueRun, 0, w.capacity/fillRunRatio)
	}
	runs := w.runs[:0]
	var negZero, posZero bool
	for i, x := range xs {
		if i > 0 && math.Float64bits(x) == math.Float64bits(xs[i-1]) {
			runs[len(runs)-1].n++
			continue
		}
		if len(runs) == maxRuns {
			return false
		}
		if x == 0 {
			negZero = negZero || math.Signbit(x)
			posZero = posZero || !math.Signbit(x)
		}
		runs = append(runs, valueRun{v: x, n: 1})
	}
	if negZero && posZero {
		return false
	}
	slices.SortFunc(runs, func(a, b valueRun) int { return cmp.Compare(a.v, b.v) })
	out := w.sorted[:0]
	for _, r := range runs {
		for j := 0; j < r.n; j++ {
			out = append(out, r.v)
		}
	}
	w.runs = runs
	return true
}

func (w *WindowedECDF) mustSample() {
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
}

// refreshPrefix rebuilds the prefix-sum array after a mutation. The
// summation runs left to right over the sorted sample — the same order
// newEmpiricalOwned uses — so PartialMean matches a fresh NewEmpirical
// of the identical window bit for bit.
func (w *WindowedECDF) refreshPrefix() {
	if !w.dirtyPrefix {
		return
	}
	w.mustSample()
	if cap(w.prefix) < w.n+1 {
		w.prefix = make([]float64, w.capacity+1)
	}
	w.prefix = w.prefix[:w.n+1]
	w.prefix[0] = 0
	for i, x := range w.sorted {
		w.prefix[i+1] = w.prefix[i] + x
	}
	w.dirtyPrefix = false
}

// refreshMoments recomputes the cached mean/variance with the exact
// MeanVar pass NewEmpirical uses.
func (w *WindowedECDF) refreshMoments() {
	if !w.dirtyMoments {
		return
	}
	w.mustSample()
	w.mean, w.vari = MeanVar(w.sorted)
	w.dirtyMoments = false
}

// refreshHist rebuilds the PDF histogram into the pooled buffers with
// histogramFor's exact arithmetic.
func (w *WindowedECDF) refreshHist() {
	if !w.dirtyHist {
		return
	}
	w.mustSample()
	w.bins, w.counts, w.dens = histogramInto(w.sorted, w.nbins, w.bins, w.counts, w.dens)
	w.dirtyHist = false
}

// Snapshot freezes the current window as an immutable *Empirical —
// what Client.market hands to the bid optimizer and keeps as its
// stale-ECDF fallback. It skips the sort (the window is already
// ordered) but still copies, so later Pushes cannot perturb a retained
// snapshot. nbins semantics match NewEmpirical.
func (w *WindowedECDF) Snapshot(nbins int) (*Empirical, error) {
	if w.n == 0 {
		return nil, fmt.Errorf("%w: empirical distribution needs at least one sample", ErrBadParam)
	}
	s := make([]float64, w.n)
	copy(s, w.sorted)
	return newEmpiricalOwned(s, nbins), nil
}

// Values returns the sorted live window (shared; callers must not
// modify or retain across a Push).
func (w *WindowedECDF) Values() []float64 { return w.sorted[:w.n] }

// PDF implements Dist using the histogram density.
func (w *WindowedECDF) PDF(x float64) float64 {
	w.refreshHist()
	return histPDF(w.bins, w.dens, x)
}

// CDF implements Dist with the right-continuous ECDF
// F(x) = #{x_i ≤ x}/n.
func (w *WindowedECDF) CDF(x float64) float64 {
	w.mustSample()
	return float64(searchGT(w.sorted, x)) / float64(w.n)
}

// Quantile implements Dist with type-7 interpolation, matching
// Empirical.Quantile.
func (w *WindowedECDF) Quantile(q float64) float64 {
	checkProb(q)
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
	if w.n == 1 {
		return w.sorted[0]
	}
	h := float64(w.n-1) * q
	i := int(h)
	if i >= w.n-1 {
		return w.sorted[w.n-1]
	}
	frac := h - float64(i)
	return w.sorted[i] + frac*(w.sorted[i+1]-w.sorted[i])
}

// Sample implements Dist by bootstrap resampling.
func (w *WindowedECDF) Sample(r *rand.Rand) float64 {
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
	return w.sorted[r.Intn(w.n)]
}

// Mean implements Dist.
func (w *WindowedECDF) Mean() float64 {
	w.refreshMoments()
	return w.mean
}

// Var implements Dist.
func (w *WindowedECDF) Var() float64 {
	w.refreshMoments()
	return w.vari
}

// Support implements Dist.
func (w *WindowedECDF) Support() Interval {
	if w.n == 0 {
		panic("dist: windowed ECDF queried before any sample was pushed")
	}
	return Interval{Lo: w.sorted[0], Hi: w.sorted[w.n-1]}
}

// PartialMean returns (1/n)·Σ_{x_i ≤ p} x_i — see Empirical.PartialMean.
func (w *WindowedECDF) PartialMean(p float64) float64 {
	w.refreshPrefix()
	return w.prefix[searchGT(w.sorted, p)] / float64(w.n)
}
