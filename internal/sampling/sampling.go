// Package sampling implements PrivApprox's client-side Simple Random
// Sampling (paper §3.2.1): each client flips a coin with probability s to
// decide whether it participates in answering a query in the current
// epoch, and the aggregator scales the observed sum back to the
// population with the classical SRS estimator (Eq. 2) and its
// t-distribution error bound (Eq. 3–4).
package sampling

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"privapprox/internal/stats"
)

// Errors returned by the estimators.
var (
	ErrEmptySample   = errors.New("sampling: empty sample")
	ErrBadPopulation = errors.New("sampling: population smaller than sample")
	ErrBadFraction   = errors.New("sampling: fraction must be in (0, 1]")
	ErrBadConfidence = errors.New("sampling: confidence must be in (0, 1)")
)

// Bernoulli draws independent participation decisions with a fixed
// probability, backed by a caller-supplied PRNG so experiments are
// reproducible.
type Bernoulli struct {
	fraction float64
	rng      *rand.Rand
}

// NewBernoulli returns a sampler that participates with probability
// fraction ∈ (0, 1].
func NewBernoulli(fraction float64, rng *rand.Rand) (*Bernoulli, error) {
	if fraction <= 0 || fraction > 1 || math.IsNaN(fraction) {
		return nil, fmt.Errorf("%w: %v", ErrBadFraction, fraction)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	return &Bernoulli{fraction: fraction, rng: rng}, nil
}

// Fraction returns the participation probability s.
func (b *Bernoulli) Fraction() float64 { return b.fraction }

// Participate flips the sampling coin.
func (b *Bernoulli) Participate() bool {
	return b.rng.Float64() < b.fraction
}

// HashDecider makes deterministic participation decisions from
// (clientID, epoch, seed). Distributed clients reach the same verdict
// without coordination, and re-running an epoch is reproducible — the
// property the paper's "synchronization-free" architecture relies on.
type HashDecider struct {
	fraction float64
	seed     uint64
}

// NewHashDecider returns a deterministic decider for the given
// participation fraction and seed.
func NewHashDecider(fraction float64, seed uint64) (*HashDecider, error) {
	if fraction <= 0 || fraction > 1 || math.IsNaN(fraction) {
		return nil, fmt.Errorf("%w: %v", ErrBadFraction, fraction)
	}
	return &HashDecider{fraction: fraction, seed: seed}, nil
}

// Fraction returns the participation probability s.
func (d *HashDecider) Fraction() float64 { return d.fraction }

// Uniform maps (clientID, epoch, seed) to a deterministic draw
// u ∈ [0, 1) — the coordinate behind Participate. Exposing it lets a
// shed threshold compose with the per-query fraction on the *same*
// draw: the participants at effective fraction f·shed are exactly the
// subset of the fraction-f participants with the smallest u, so
// tightening shed only removes clients, never swaps one set for
// another (a nested, deterministic shrink — the property that keeps
// shedding an SRS over the population).
func (d *HashDecider) Uniform(clientID string, epoch uint64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], d.seed)
	binary.BigEndian.PutUint64(buf[8:], epoch)
	h.Write(buf[:])
	h.Write([]byte(clientID))
	// FNV-1a's high bits mix poorly on short structured inputs, so run
	// the sum through a strong 64-bit finalizer (MurmurHash3 fmix64)
	// before mapping to [0, 1).
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// Participate reports whether the client participates in the epoch. The
// decision is a pure function of (clientID, epoch, seed).
func (d *HashDecider) Participate(clientID string, epoch uint64) bool {
	return d.Uniform(clientID, epoch) < d.fraction
}

// ParticipateShed is Participate at the effective fraction s·shed,
// where shed ∈ (0, 1] is the overload-control threshold. Its
// participants are always a subset of Participate's for the same
// epoch (shed = 1 is exactly Participate), so overload shedding
// composes with per-query sampling without disturbing the coin
// streams of clients that keep participating.
func (d *HashDecider) ParticipateShed(clientID string, epoch uint64, shed float64) bool {
	return d.Uniform(clientID, epoch) < d.fraction*shed
}

// SumEstimate is the approximate sum τ̂ with its error bound (paper
// Eq. 2–4): Sum ± Margin at the given confidence level.
type SumEstimate struct {
	Sum        float64 // τ̂, the scaled estimate of the population sum
	Margin     float64 // error bound at Confidence (Eq. 3)
	Confidence float64 // e.g. 0.95
	SampleSize int     // U′
	Population int     // U
}

// Interval converts the estimate into a stats.ConfidenceInterval.
func (e SumEstimate) Interval() stats.ConfidenceInterval {
	return stats.ConfidenceInterval{Estimate: e.Sum, Margin: e.Margin, Confidence: e.Confidence}
}

// EstimateSum scales the observed sample sum to the population
// (τ̂ = U/U′ · Σ aᵢ, Eq. 2) and attaches the t-distribution error bound
// of Eq. 3 using the estimated variance of Eq. 4 with the finite
// population correction (U−U′)/U.
func EstimateSum(sample []float64, population int, confidence float64) (SumEstimate, error) {
	var acc stats.Running
	for _, v := range sample {
		acc.Add(v)
	}
	return EstimateSumFromMoments(&acc, population, confidence)
}

// EstimateSumFromMoments is EstimateSum for streaming callers that keep a
// running accumulator instead of buffering the sample.
func EstimateSumFromMoments(acc *stats.Running, population int, confidence float64) (SumEstimate, error) {
	n := int(acc.N())
	if n == 0 {
		return SumEstimate{}, ErrEmptySample
	}
	if population < n {
		return SumEstimate{}, fmt.Errorf("%w: U=%d < U'=%d", ErrBadPopulation, population, n)
	}
	if confidence <= 0 || confidence >= 1 {
		return SumEstimate{}, fmt.Errorf("%w: %v", ErrBadConfidence, confidence)
	}
	u := float64(population)
	uPrime := float64(n)
	est := SumEstimate{
		Sum:        u / uPrime * acc.Sum(),
		Confidence: confidence,
		SampleSize: n,
		Population: population,
	}
	if n == 1 {
		// No variance information; the bound is vacuous.
		est.Margin = math.Inf(1)
		return est, nil
	}
	// Eq. 4: V̂ar(τ̂) = U²/U′ · σ² · (U−U′)/U.
	variance := u * u / uPrime * acc.Variance() * (u - uPrime) / u
	tcrit, err := stats.TCritical(1-confidence, n-1)
	if err != nil {
		return SumEstimate{}, err
	}
	est.Margin = tcrit * math.Sqrt(variance) // Eq. 3
	return est, nil
}

// EstimateCount is EstimateSum specialized to 0/1 answers: yes is the
// number of observed "1" bits among n sampled answers.
func EstimateCount(yes, n, population int, confidence float64) (SumEstimate, error) {
	if n < 0 || yes < 0 || yes > n {
		return SumEstimate{}, fmt.Errorf("sampling: invalid counts yes=%d n=%d", yes, n)
	}
	var acc stats.Running
	for i := 0; i < yes; i++ {
		acc.Add(1)
	}
	for i := yes; i < n; i++ {
		acc.Add(0)
	}
	return EstimateSumFromMoments(&acc, population, confidence)
}

// BinomialMoments returns a Running accumulator equivalent to observing
// yes ones and n-yes zeros, without the O(n) loop. Useful for large
// windows at the aggregator. It returns the accumulator by value so a
// per-bucket estimate keeps it on the caller's stack.
func BinomialMoments(yes, n int) (stats.Running, error) {
	if n < 0 || yes < 0 || yes > n {
		return stats.Running{}, fmt.Errorf("sampling: invalid counts yes=%d n=%d", yes, n)
	}
	if n == 0 {
		return stats.Running{}, nil
	}
	// Construct moments directly: mean = yes/n, M2 = Σ(x-mean)².
	mean := float64(yes) / float64(n)
	m2 := float64(yes)*(1-mean)*(1-mean) + float64(n-yes)*mean*mean
	return stats.FromRaw(int64(n), mean, m2, float64(yes), minBit(yes, n), maxBit(yes)), nil
}

func minBit(yes, n int) float64 {
	if yes == n { // all ones
		return 1
	}
	return 0
}

func maxBit(yes int) float64 {
	if yes > 0 {
		return 1
	}
	return 0
}
