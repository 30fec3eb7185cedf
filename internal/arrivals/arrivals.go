// Package arrivals models the bid-arrival process Λ(t): the volume of
// new spot requests submitted to the provider in each time slot. The
// paper assumes Λ(t) i.i.d. with Pareto or exponential marginals
// (§4.2–4.3, Fig. 3); this package also provides a diurnally modulated
// variant used to test the day/night stationarity check (§4.3's KS
// test) and an AR(1) variant for the temporal-correlation ablation
// (§8).
package arrivals

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// Process generates one arrival volume per slot. Implementations are
// not safe for concurrent use; each simulation owns its process.
type Process interface {
	// Next returns Λ(t) for the next slot, drawn with r.
	Next(r *rand.Rand) float64
	// MeanVar reports the stationary mean λ and variance σ of the
	// process (Prop. 1's constants). Variance may be +Inf.
	MeanVar() (lambda, sigma float64)
}

// IID draws each slot's volume independently from a distribution —
// the paper's baseline assumption (§4.2).
type IID struct {
	D dist.Dist
}

// NewIID wraps a distribution as an i.i.d. arrival process.
func NewIID(d dist.Dist) IID { return IID{D: d} }

// Next implements Process.
func (p IID) Next(r *rand.Rand) float64 { return p.D.Sample(r) }

// MeanVar implements Process.
func (p IID) MeanVar() (float64, float64) { return p.D.Mean(), p.D.Var() }

// Deterministic emits a constant volume every slot; used for
// equilibrium tests (Prop. 2: with constant arrivals the queue sits
// exactly at EquilibriumLoad).
type Deterministic struct {
	Volume float64
}

// Next implements Process.
func (p Deterministic) Next(*rand.Rand) float64 { return p.Volume }

// MeanVar implements Process.
func (p Deterministic) MeanVar() (float64, float64) { return p.Volume, 0 }

// Diurnal modulates a base process with a sinusoidal day/night cycle:
//
//	Λ(t) = base(t) · (1 + Amplitude·sin(2π·t/Period))
//
// Amplitude = 0 recovers the base process. The §4.3 validation uses
// this to confirm the KS day/night test detects non-stationarity when
// present and passes when absent.
type Diurnal struct {
	Base      Process
	Amplitude float64 // relative swing, in [0, 1)
	Period    int     // slots per day (288 for five-minute slots)

	slot int
}

// NewDiurnal wraps base with a sinusoidal modulation.
func NewDiurnal(base Process, amplitude float64, period int) (*Diurnal, error) {
	if amplitude < 0 || amplitude >= 1 {
		return nil, fmt.Errorf("arrivals: diurnal amplitude %v outside [0, 1)", amplitude)
	}
	if period < 2 {
		return nil, fmt.Errorf("arrivals: diurnal period %d too short", period)
	}
	return &Diurnal{Base: base, Amplitude: amplitude, Period: period}, nil
}

// Next implements Process.
func (p *Diurnal) Next(r *rand.Rand) float64 {
	mod := p.Factor(p.slot)
	p.slot++
	return p.Base.Next(r) * mod
}

// Factor is the modulation 1 + Amplitude·sin(2π·slot/Period) that Next
// applies at a slot index.
func (p *Diurnal) Factor(slot int) float64 {
	return 1 + p.Amplitude*math.Sin(2*math.Pi*float64(slot)/float64(p.Period))
}

// MeanVar implements Process. The sinusoid averages out over a day,
// leaving the base mean; the variance gains a (1 + A²/2) mixing factor
// applied to the second moment. Reported approximately.
func (p *Diurnal) MeanVar() (float64, float64) {
	lam, sig := p.Base.MeanVar()
	m2 := sig + lam*lam
	mix := 1 + p.Amplitude*p.Amplitude/2
	return lam, m2*mix - lam*lam
}

// AR1 is a first-order autoregressive process over a positive base
// distribution:
//
//	Λ(t) = λ + ρ·(Λ(t−1) − λ) + noise(t),
//
// with Λ clipped at 0. It models the temporally correlated cloud
// workloads §8 discusses; ρ = 0 degenerates to i.i.d. noise around λ.
type AR1 struct {
	Lambda float64 // stationary mean λ
	Rho    float64 // autocorrelation ρ ∈ [0, 1)
	Noise  dist.Dist

	prev    float64
	started bool
}

// NewAR1 returns an AR(1) arrival process with stationary mean lambda,
// lag-1 correlation rho, and innovation distribution noise (which
// should have mean ≈ 0).
func NewAR1(lambda, rho float64, noise dist.Dist) (*AR1, error) {
	if rho < 0 || rho >= 1 {
		return nil, fmt.Errorf("arrivals: AR(1) rho %v outside [0, 1)", rho)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("arrivals: AR(1) mean %v negative", lambda)
	}
	return &AR1{Lambda: lambda, Rho: rho, Noise: noise}, nil
}

// Next implements Process.
func (p *AR1) Next(r *rand.Rand) float64 {
	if !p.started {
		p.prev = p.Lambda
		p.started = true
	}
	v := p.Lambda + p.Rho*(p.prev-p.Lambda) + p.Noise.Sample(r)
	if v < 0 {
		v = 0
	}
	p.prev = v
	return v
}

// MeanVar implements Process: stationary variance σ²_noise/(1−ρ²),
// ignoring the boundary clipping at 0.
func (p *AR1) MeanVar() (float64, float64) {
	return p.Lambda, p.Noise.Var() / (1 - p.Rho*p.Rho)
}
