// Package sample centralizes all randomness used by the library.
//
// Differentially private mechanisms are only as trustworthy as their noise,
// and experiments are only as trustworthy as their reproducibility, so every
// consumer draws from a Source constructed from an explicit seed. A Source
// wraps math/rand and adds the non-uniform samplers the mechanisms need:
// Laplace (the workhorse of pure-DP noise addition), Gaussian, Gumbel (for
// exponential-mechanism sampling via the Gumbel-max trick), and exponential.
//
// A Source's position in its stream is serializable: State captures
// (seed, draws) and FromState replays the generator to the same position,
// so a snapshotted mechanism resumes with bit-identical noise (the
// persistence layer in internal/persist depends on this).
package sample

import (
	"fmt"
	"math"
	"math/rand"
)

// countingSource wraps the standard math/rand generator and counts the
// low-level Int63 draws consumed, making the stream position serializable.
// It deliberately implements only rand.Source (not Source64): rand.Rand's
// Uint64 fallback for plain Sources is the same two-Int63 expression the
// runtime generator's own Uint64 uses, so every variate is bit-identical
// to rand.New(rand.NewSource(seed)) while each draw passes through (and is
// counted by) Int63.
type countingSource struct {
	src   rand.Source
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// Source is a seeded stream of random variates. It is not safe for
// concurrent use; callers that parallelize must Split first.
type Source struct {
	rng  *rand.Rand
	seed int64
	cnt  *countingSource
}

// New returns a Source seeded with the given value. Equal seeds yield equal
// streams.
func New(seed int64) *Source {
	cnt := &countingSource{src: rand.NewSource(seed)}
	return &Source{rng: rand.New(cnt), seed: seed, cnt: cnt}
}

// State is a serializable snapshot of a Source's position in its stream:
// the seed it was constructed with and the number of low-level draws
// consumed so far. FromState(s.State()) continues s's stream exactly.
type State struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// State returns the Source's current stream position.
func (s *Source) State() State {
	return State{Seed: s.seed, Draws: s.cnt.draws}
}

// MaxReplayDraws bounds the stream position FromState will replay. States
// come from files, and replay is O(Draws), so an unchecked corrupt or
// tampered count could hang recovery indefinitely. The bound is far above
// any position a legitimate session reaches (a ⊤ answer draws on the order
// of oracle-iterations × dimension variates, and sessions are capped at
// 100000 queries) while capping worst-case replay at well under a minute.
const MaxReplayDraws = 1 << 34

// FromState reconstructs a Source at the given stream position by
// re-seeding and replaying the recorded number of draws. The cost is
// O(Draws), which for the mechanisms here (a handful of noise draws per
// released answer) is negligible next to a single universe sweep. Positions
// beyond MaxReplayDraws are refused as corrupt.
func FromState(st State) (*Source, error) {
	if st.Draws > MaxReplayDraws {
		return nil, fmt.Errorf("sample: state position %d exceeds the replay bound %d (corrupt state?)", st.Draws, uint64(MaxReplayDraws))
	}
	s := New(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		s.cnt.src.Int63()
	}
	s.cnt.draws = st.Draws
	return s, nil
}

// Split derives an independent child Source. The child's stream is a
// deterministic function of the parent's state, so a fixed top-level seed
// still pins down the entire experiment.
func (s *Source) Split() *Source {
	return New(s.rng.Int63())
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Gaussian returns a normal variate with the given mean and standard
// deviation sigma. sigma must be >= 0.
func (s *Source) Gaussian(mean, sigma float64) float64 {
	return mean + sigma*s.rng.NormFloat64()
}

// Laplace returns a Laplace variate with mean 0 and scale b, i.e. density
// (1/2b)·exp(−|x|/b). Scale b must be > 0; b = 0 returns 0 exactly (the
// degenerate noiseless case, used to express non-private baselines).
func (s *Source) Laplace(b float64) float64 {
	if b == 0 {
		return 0
	}
	// Inverse-CDF sampling from u ∈ (−1/2, 1/2).
	u := s.rng.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// Exponential returns an exponential variate with mean m (rate 1/m).
func (s *Source) Exponential(m float64) float64 {
	return m * s.rng.ExpFloat64()
}

// Gumbel returns a standard Gumbel variate with scale beta. Adding
// independent Gumbel(β) noise to score/β... more precisely, argmaxᵢ
// (scoreᵢ + Gumbel(β)) samples i with probability ∝ exp(scoreᵢ/β), which is
// exactly the exponential mechanism's distribution. This "Gumbel-max trick"
// is how mech.Exponential is implemented.
func (s *Source) Gumbel(beta float64) float64 {
	// −β·log(−log U), U uniform in (0,1). Guard U = 0.
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return -beta * math.Log(-math.Log(u))
}

// GaussianVec returns a vector of n i.i.d. N(0, sigma²) variates.
func (s *Source) GaussianVec(n int, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Gaussian(0, sigma)
	}
	return out
}

// UnitVec returns a uniform random point on the unit sphere in R^d.
func (s *Source) UnitVec(d int) []float64 {
	v := make([]float64, d)
	for {
		var norm2 float64
		for i := range v {
			v[i] = s.rng.NormFloat64()
			norm2 += v[i] * v[i]
		}
		if norm2 > 0 {
			n := math.Sqrt(norm2)
			for i := range v {
				v[i] /= n
			}
			return v
		}
	}
}

// Categorical samples an index from the (unnormalized, non-negative) weight
// vector w. It panics if all weights are zero or any is negative: callers
// own weight validity.
func (s *Source) Categorical(w []float64) int {
	var total float64
	for _, v := range w {
		if v < 0 || math.IsNaN(v) {
			panic("sample: Categorical weight negative or NaN")
		}
		total += v
	}
	if total <= 0 {
		panic("sample: Categorical weights sum to zero")
	}
	u := s.rng.Float64() * total
	var cum float64
	for i, v := range w {
		cum += v
		if u < cum {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return len(w) - 1
}

// CategoricalInto fills out with len(out) independent draws from the weight
// vector w. Each entry equals what one Categorical(w) call would return
// after the entries before it: one Float64 per draw, compared against the
// same left-to-right cumulative sums, with the same fallback. The sums are
// built once and each draw binary-searches them, so the cost is
// O(|w| + len(out)·log|w|) instead of O(len(out)·|w|). It panics where
// Categorical does.
func (s *Source) CategoricalInto(out []int, w []float64) {
	cum := make([]float64, len(w))
	var total float64
	for i, v := range w {
		if v < 0 || math.IsNaN(v) {
			panic("sample: Categorical weight negative or NaN")
		}
		total += v
		cum[i] = total
	}
	if total <= 0 {
		panic("sample: Categorical weights sum to zero")
	}
	// Floating-point slack: a draw past the last sum takes the last
	// positive-weight index, as in Categorical. total > 0, so one exists.
	last := len(w) - 1
	for w[last] <= 0 {
		last--
	}
	for k := range out {
		u := s.rng.Float64() * total
		// The first i with u < cum[i]; cum is non-decreasing, so the
		// predicate is monotone and the linear scan's answer is this one.
		lo, hi := 0, len(cum)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if u < cum[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo == len(cum) {
			lo = last
		}
		out[k] = lo
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}
