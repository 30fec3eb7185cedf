package stats

import (
	"fmt"
	"math"
)

// Objective is a function to minimize over a parameter vector.
type Objective func(params []float64) float64

// NelderMeadOptions tunes the simplex search.
type NelderMeadOptions struct {
	// MaxIter bounds the number of simplex iterations (default 2000).
	MaxIter int
	// Tol stops the search when the simplex function values span less
	// than Tol (default 1e-12).
	Tol float64
	// Step is the initial simplex displacement per coordinate
	// (default: 5% of the coordinate's magnitude, or 0.05).
	Step []float64
}

// NelderMead minimizes f starting from x0 with the Nelder–Mead
// downhill-simplex method. It returns the best parameter vector and
// its objective value. Parameter-space constraints are handled by the
// objective returning +Inf outside the feasible region; the fitting
// wrappers below do exactly that. f must not retain its argument:
// trial points are built in reused buffers.
//
// A derivative-free method is the right tool here: the least-squares
// divergence between a histogram and the model PDF (Fig. 3's fitting
// criterion) is piecewise-smooth at best.
func NelderMead(f Objective, x0 []float64, opt NelderMeadOptions) ([]float64, float64) {
	n := len(x0)
	if n == 0 {
		return nil, f(nil)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 2000
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-12
	}

	// Build the initial simplex: x0 plus one displaced vertex per axis.
	simplex := make([][]float64, n+1)
	vals := make([]float64, n+1)
	simplex[0] = append([]float64(nil), x0...)
	for i := 0; i < n; i++ {
		v := append([]float64(nil), x0...)
		step := 0.05
		if i < len(opt.Step) && opt.Step[i] != 0 {
			step = opt.Step[i]
		} else if v[i] != 0 {
			step = 0.05 * math.Abs(v[i])
		}
		v[i] += step
		simplex[i+1] = v
	}
	for i := range simplex {
		vals[i] = f(simplex[i])
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	// order sorts the vertices by value in place. Insertion sort is
	// stable, so ties keep their vertex order.
	order := func() {
		for i := 1; i <= n; i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				simplex[j], simplex[j-1] = simplex[j-1], simplex[j]
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
	}

	// Trial points are built in reusable buffers; an accepted trial
	// swaps places with the worst vertex, whose storage becomes the
	// buffer.
	centroid := make([]float64, n)
	refl, exp, con := make([]float64, n), make([]float64, n), make([]float64, n)
	point := func(out, base []float64, coef float64, dir []float64) {
		for i := range out {
			out[i] = base[i] + coef*(base[i]-dir[i])
		}
	}

	for iter := 0; iter < opt.MaxIter; iter++ {
		order()
		if math.Abs(vals[n]-vals[0]) < opt.Tol && !math.IsInf(vals[n], 0) {
			break
		}
		// Centroid of all but the worst vertex.
		for i := range centroid {
			centroid[i] = 0
		}
		for _, v := range simplex[:n] {
			for i := range centroid {
				centroid[i] += v[i] / float64(n)
			}
		}
		worst := simplex[n]

		point(refl, centroid, alpha, worst)
		fr := f(refl)
		switch {
		case fr < vals[0]:
			point(exp, centroid, gamma, worst)
			if fe := f(exp); fe < fr {
				simplex[n], exp, vals[n] = exp, simplex[n], fe
			} else {
				simplex[n], refl, vals[n] = refl, simplex[n], fr
			}
		case fr < vals[n-1]:
			simplex[n], refl, vals[n] = refl, simplex[n], fr
		default:
			point(con, centroid, -rho, worst)
			if fc := f(con); fc < vals[n] {
				simplex[n], con, vals[n] = con, simplex[n], fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := range simplex[i] {
						simplex[i][j] = simplex[0][j] + sigma*(simplex[i][j]-simplex[0][j])
					}
					vals[i] = f(simplex[i])
				}
			}
		}
	}
	order()
	return simplex[0], vals[0]
}

// PDFFit is the result of fitting a parametric PDF to histogram data.
type PDFFit struct {
	// Params are the fitted parameters.
	Params []float64
	// MSE is the mean squared divergence between the fitted PDF and
	// the empirical densities (the paper's fit criterion, §4.3).
	MSE float64
}

// FitPDF fits model(params)(x) to the empirical density pairs
// (xs[i], dens[i]) by least squares, starting from x0 and constraining
// parameters with feasible (return false to reject). It refines the
// Nelder–Mead solution from a small multi-start to dodge local minima.
func FitPDF(xs, dens []float64, model func(params []float64) func(x float64) float64,
	x0 []float64, feasible func(params []float64) bool) (PDFFit, error) {
	if len(xs) != len(dens) {
		return PDFFit{}, fmt.Errorf("stats: FitPDF length mismatch %d vs %d", len(xs), len(dens))
	}
	if len(xs) == 0 {
		return PDFFit{}, fmt.Errorf("stats: FitPDF needs data")
	}
	obj := func(params []float64) float64 {
		if feasible != nil && !feasible(params) {
			return math.Inf(1)
		}
		pdf := model(params)
		var s float64
		for i, x := range xs {
			d := pdf(x) - dens[i]
			s += d * d
			if math.IsNaN(s) {
				return math.Inf(1)
			}
		}
		return s / float64(len(xs))
	}

	best, bestVal := NelderMead(obj, x0, NelderMeadOptions{})
	// Multi-start: perturb the seed a few times; keep the best.
	for _, scale := range []float64{0.5, 2, 0.25, 4} {
		seed := make([]float64, len(x0))
		for i, v := range x0 {
			seed[i] = v * scale
		}
		if cand, v := NelderMead(obj, seed, NelderMeadOptions{}); v < bestVal {
			best, bestVal = cand, v
		}
	}
	if math.IsInf(bestVal, 0) || math.IsNaN(bestVal) {
		return PDFFit{}, fmt.Errorf("stats: FitPDF found no feasible parameters")
	}
	return PDFFit{Params: best, MSE: bestVal}, nil
}
