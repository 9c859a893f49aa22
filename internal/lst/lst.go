// Package lst provides the Laplace–Stieltjes transform algebra the analytic
// model is built on. A Transform carries both the transform function
// E[e^{-sX}] and the analytic mean of the underlying nonnegative random
// variable, so that convolution, mixing and Poisson compounding propagate
// means without numerical differentiation. CDFs are recovered by numerical
// inversion (package numeric).
package lst

import (
	"math"
	"math/cmplx"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
)

// Transform is the Laplace–Stieltjes transform of a nonnegative random
// variable together with its mean.
type Transform struct {
	// F evaluates E[e^{-sX}] at complex frequency s.
	F numeric.TransformFunc
	// Mean is E[X].
	Mean float64
}

// One is the transform of the constant 0 (the convolution identity).
func One() Transform {
	return Transform{F: func(complex128) complex128 { return 1 }, Mean: 0}
}

// FromDist wraps a distribution's LST and mean.
func FromDist(d dist.Distribution) Transform {
	return Transform{F: d.LST, Mean: d.Mean()}
}

// Delay is the transform of a deterministic delay c: e^{-s c}.
func Delay(c float64) Transform {
	return Transform{
		F:    func(s complex128) complex128 { return cmplx.Exp(-s * complex(c, 0)) },
		Mean: c,
	}
}

// Convolve returns the transform of the independent sum X₁+…+Xₙ: the product
// of the transforms.
func Convolve(ts ...Transform) Transform {
	switch len(ts) {
	case 0:
		return One()
	case 1:
		return ts[0]
	}
	mean := 0.0
	fs := make([]numeric.TransformFunc, len(ts))
	for i, t := range ts {
		mean += t.Mean
		fs[i] = t.F
	}
	return Transform{
		F: func(s complex128) complex128 {
			p := complex(1, 0)
			for _, f := range fs {
				p *= f(s)
			}
			return p
		},
		Mean: mean,
	}
}

// Mix returns the probabilistic mixture Σ wᵢ·Tᵢ with the given weights
// (which must be nonnegative; they are normalized).
func Mix(ts []Transform, weights []float64) Transform {
	if len(ts) == 0 || len(ts) != len(weights) {
		return One()
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return One()
	}
	mean := 0.0
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
		mean += norm[i] * ts[i].Mean
	}
	local := append([]Transform(nil), ts...)
	return Transform{
		F: func(s complex128) complex128 {
			var sum complex128
			for i, t := range local {
				sum += complex(norm[i], 0) * t.F(s)
			}
			return sum
		},
		Mean: mean,
	}
}

// HitOrMiss returns the transform of the paper's cache-aware operation
// latency: disk latency with probability miss, zero otherwise.
// index(s) = miss·disk(s) + (1-miss).
func HitOrMiss(disk Transform, miss float64) Transform {
	if miss < 0 {
		miss = 0
	}
	if miss > 1 {
		miss = 1
	}
	f := disk.F
	return Transform{
		F: func(s complex128) complex128 {
			return complex(miss, 0)*f(s) + complex(1-miss, 0)
		},
		Mean: miss * disk.Mean,
	}
}

// PoissonCompound returns the transform of Σ_{i=1}^{N} Xᵢ where N is Poisson
// with mean p and the Xᵢ are iid with transform t:
// E[e^{-sΣX}] = e^{p·(t(s)-1)}.
// This is the paper's "extra data reads per union operation" term.
func PoissonCompound(t Transform, p float64) Transform {
	if p <= 0 {
		return One()
	}
	f := t.F
	return Transform{
		F: func(s complex128) complex128 {
			return cmplx.Exp(complex(p, 0) * (f(s) - 1))
		},
		Mean: p * t.Mean,
	}
}

// GeometricCompound returns the transform of Σ_{i=1}^{N} Xᵢ with N geometric
// on {0,1,2,…} with mean p (success prob 1/(1+p)):
// E[e^{-sΣX}] = (1/(1+p)) / (1 - (p/(1+p))·t(s)).
// Provided as an ablation alternative to Poisson compounding.
func GeometricCompound(t Transform, p float64) Transform {
	if p <= 0 {
		return One()
	}
	q := p / (1 + p)
	f := t.F
	return Transform{
		F: func(s complex128) complex128 {
			return complex(1-q, 0) / (1 - complex(q, 0)*f(s))
		},
		Mean: p * t.Mean,
	}
}

// FixedCompound returns the transform of a deterministic number n of iid
// copies: t(s)^n. Provided as an ablation alternative ("fixed mean reads").
func FixedCompound(t Transform, n int) Transform {
	if n <= 0 {
		return One()
	}
	f := t.F
	return Transform{
		F: func(s complex128) complex128 {
			return cmplx.Pow(f(s), complex(float64(n), 0))
		},
		Mean: float64(n) * t.Mean,
	}
}

// CDF evaluates the CDF of the random variable behind t at time x using the
// given inverter, clamped to [0,1].
func CDF(inv numeric.Inverter, t Transform, x float64) float64 {
	return numeric.InvertCDF(inv, t.F, x)
}

// CDFAtNodes evaluates a CDF from precomputed inversion nodes and weights
// (see numeric.NodeInverter): Σ_k Re(w_k · f(s_k)/s_k), clamped to [0,1].
// Given nodes for time x it equals CDF(inv, Transform{F: f}, x); sharing the
// nodes lets an evaluation engine invert many transforms with common factors
// without re-deriving the quadrature.
func CDFAtNodes(s, w []complex128, f numeric.TransformFunc) float64 {
	var sum float64
	for k := range s {
		sum += real(w[k] * (f(s[k]) / s[k]))
	}
	return numeric.Clamp01(sum)
}

// PDF evaluates the density behind t at x using the given inverter. It is
// meaningful only where the distribution is absolutely continuous.
func PDF(inv numeric.Inverter, t Transform, x float64) float64 {
	if x <= 0 {
		return 0
	}
	v := inv.Invert(t.F, x)
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// Quantile inverts the CDF of t numerically: the smallest x with
// CDF(x) >= p, found by bracketed bisection around the mean.
func Quantile(inv numeric.Inverter, t Transform, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	hi := math.Max(t.Mean, 1e-9)
	for CDF(inv, t, hi) < p {
		hi *= 2
		if hi > 1e12 {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if CDF(inv, t, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// SecondMomentNumeric estimates E[X²] from the transform by central second
// differences at a step scaled to the mean. Useful for diagnostics (e.g.
// P-K mean waiting); the model itself never requires it.
func SecondMomentNumeric(t Transform) float64 {
	scale := math.Max(t.Mean, 1e-12)
	h := 1e-4 / scale
	f0 := 1.0
	f1 := real(t.F(complex(h, 0)))
	f2 := real(t.F(complex(2*h, 0)))
	return (f2 - 2*f1 + f0) / (h * h)
}
