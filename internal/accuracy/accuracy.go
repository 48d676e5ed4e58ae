// Package accuracy implements the paper's evaluation games and metrics:
//
//   - the Sample Accuracy game Acc (Definition 2.4 / Figure 1) between a
//     mechanism and an adversary that chooses the dataset and an adaptive
//     query sequence;
//   - error metrics err_ℓ(D, θ̂) and err_ℓ(D, D′) (Definitions 2.2/2.3);
//   - adversaries of increasing strength (fixed list, random pool, greedy
//     worst-first ordering);
//   - generalization-error measurement against the population the dataset
//     was sampled from (§1.3's adaptive-data-analysis connection);
//   - an empirical differential-privacy verifier that compares a
//     mechanism's output distribution on adjacent datasets.
package accuracy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/optimize"
)

// Answerer is anything that answers an online sequence of CM queries:
// core.Server, a baseline adapter, or a mock.
type Answerer interface {
	Answer(l convex.Loss) ([]float64, error)
}

// Exchange is one query/answer pair of a game transcript.
type Exchange struct {
	Loss   convex.Loss
	Answer []float64
	// Err is err_ℓ(D, θ̂) on the game's dataset.
	Err float64
	// PopErr is err_ℓ(pop, θ̂) when a population was supplied, else NaN.
	PopErr float64
}

// Adversary chooses the next query given the transcript so far. Returning
// ok = false ends the game early.
type Adversary interface {
	Next(history []Exchange) (l convex.Loss, ok bool)
}

// Greedy asks pool queries in decreasing order of their error on a
// reference histogram (typically the uniform prior — the mechanism's
// initial hypothesis). Front-loading the hardest queries forces the
// maximum number of MW updates as early as possible, the stress pattern
// Claim 3.7 must survive.
type Greedy struct {
	order []convex.Loss
}

// NewGreedy sorts pool by err_ℓ(D, ref) descending. D is the true dataset
// histogram (the adversary chose the dataset, so it knows it).
func NewGreedy(pool []convex.Loss, d, ref *histogram.Histogram, solverIters int) (*Greedy, error) {
	type scored struct {
		l convex.Loss
		e float64
	}
	ss := make([]scored, 0, len(pool))
	for _, l := range pool {
		e, err := DatabaseErr(l, d, ref, solverIters)
		if err != nil {
			return nil, err
		}
		ss = append(ss, scored{l, e})
	}
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].e > ss[j].e })
	g := &Greedy{order: make([]convex.Loss, len(ss))}
	for i, s := range ss {
		g.order[i] = s.l
	}
	return g, nil
}

// Next implements Adversary.
func (g *Greedy) Next(history []Exchange) (convex.Loss, bool) {
	if len(history) >= len(g.order) {
		return nil, false
	}
	return g.order[len(history)], true
}

// AnswerErr returns err_ℓ(D, θ̂) = ℓ(θ̂; D) − min_θ ℓ(θ; D) (Def 2.2).
func AnswerErr(l convex.Loss, d *histogram.Histogram, theta []float64, solverIters int) (float64, error) {
	return optimize.Excess(l, theta, d, optimize.Options{MaxIters: solverIters})
}

// DatabaseErr returns err_ℓ(D, D′) (Def 2.3): evaluate D′'s minimizer on D.
func DatabaseErr(l convex.Loss, d, dPrime *histogram.Histogram, solverIters int) (float64, error) {
	res, err := optimize.Minimize(l, dPrime, optimize.Options{MaxIters: solverIters})
	if err != nil {
		return 0, err
	}
	return AnswerErr(l, d, res.Theta, solverIters)
}

// gameSolverIters bounds RunGame's error-measurement solves.
const gameSolverIters = 400

// GameConfig parameterizes RunGame.
type GameConfig struct {
	// K caps the number of queries.
	K int
	// Population, when non-nil, additionally measures each answer's
	// excess risk on the population distribution (§1.3).
	Population *histogram.Histogram
}

// GameResult summarizes a completed accuracy game.
type GameResult struct {
	Transcript []Exchange
	// MaxErr is max_j err_ℓⱼ(D, θ̂ʲ) — the quantity Definition 2.4 bounds
	// by α with probability 1−β.
	MaxErr float64
	// MaxPopErr is the corresponding population (generalization) error,
	// NaN when no population was supplied.
	MaxPopErr float64
	// HaltedEarly reports whether the mechanism stopped before the
	// adversary ran out of queries (Claim 3.7 says it should not, at
	// sufficient n).
	HaltedEarly bool
}

// RunGame plays the Sample Accuracy game of Figure 1: the adversary picks
// queries (adaptively — it sees the transcript), the answerer answers, and
// every answer is scored against the true dataset.
func RunGame(ans Answerer, adv Adversary, data *dataset.Dataset, cfg GameConfig) (*GameResult, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("accuracy: K %d must be ≥ 1", cfg.K)
	}
	d := data.Histogram()
	res := &GameResult{MaxPopErr: math.NaN()}
	for len(res.Transcript) < cfg.K {
		l, ok := adv.Next(res.Transcript)
		if !ok {
			break
		}
		theta, err := ans.Answer(l)
		if err != nil {
			// A halt is a legitimate game outcome, not a test error.
			res.HaltedEarly = true
			break
		}
		e, err := AnswerErr(l, d, theta, gameSolverIters)
		if err != nil {
			return nil, err
		}
		ex := Exchange{Loss: l, Answer: theta, Err: e, PopErr: math.NaN()}
		if cfg.Population != nil {
			pe, err := AnswerErr(l, cfg.Population, theta, gameSolverIters)
			if err != nil {
				return nil, err
			}
			ex.PopErr = pe
			if math.IsNaN(res.MaxPopErr) || pe > res.MaxPopErr {
				res.MaxPopErr = pe
			}
		}
		res.Transcript = append(res.Transcript, ex)
		if e > res.MaxErr {
			res.MaxErr = e
		}
	}
	return res, nil
}
