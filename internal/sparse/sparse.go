// Package sparse implements the online sparse vector algorithm SV of paper
// §3.1 (Theorem 3.1, Figure 2's ThresholdGame server side).
//
// SV receives an online stream of up to k sensitive queries and answers
// each with a bit in {⊤, ⊥}. Its contract (Theorem 3.1):
//
//  1. SV is (ε, δ)-differentially private;
//  2. SV halts once T queries have been answered ⊤;
//  3. with probability ≥ 1−β, every query with q(D) ≥ α is answered ⊤ and
//     every query with q(D) ≤ α/2 is answered ⊥, provided n is large enough
//     (n ≳ S·√(T·log(1/δ))·log(k/β)/(εα)).
//
// The implementation is the textbook AboveThreshold construction (Dwork &
// Roth, Algorithmic Foundations of DP, §3.6), run as T sequential epochs:
// each epoch draws fresh threshold noise ρ ~ Lap(2Δ/ε₀) and compares each
// incoming query plus fresh noise ν ~ Lap(4Δ/ε₀) against the noisy
// threshold; the first crossing ends the epoch with a ⊤. Each epoch is
// (ε₀, 0)-DP, and ε₀ is set by the paper's budget-splitting schedule
// (mech.SplitBudget) so the T-fold adaptive composition is (ε, δ)-DP.
//
// The effective threshold is placed at 3α/4, the midpoint of the decision
// gap (α/2, α), so the accuracy condition holds as soon as all noise
// magnitudes stay below α/4.
package sparse

import (
	"fmt"
	"math"

	"repro/internal/mech"
	"repro/internal/sample"
)

// Config parameterizes SV (matching SV(T, k, α, ε, δ) in the paper).
type Config struct {
	// T is the maximum number of ⊤ answers before SV halts.
	T int
	// K is the maximum number of queries SV will consider.
	K int
	// Alpha is the decision threshold: answers should be ⊤ above α and ⊥
	// below α/2.
	Alpha float64
	// Eps, Delta is the total privacy budget of the whole run.
	Eps, Delta float64
	// Sensitivity is the L1 sensitivity Δ of every incoming query; the
	// paper uses Δ = 3S/n.
	Sensitivity float64
	// PureDP switches to basic composition across the T epochs (per-epoch
	// budget ε/T), allowing Delta = 0 at the cost of √T-worse per-epoch
	// noise. The paper's variant uses strong composition (PureDP = false).
	PureDP bool
}

// SV is one run of the online sparse vector algorithm. Not safe for
// concurrent use.
type SV struct {
	cfg         Config
	src         *sample.Source
	epsEpoch    float64
	noisyThresh float64 // current epoch's noisy threshold
	tops        int
	seen        int
	halted      bool
}

// ErrHalted is returned by Query after the T-th ⊤ or the k-th query.
var ErrHalted = fmt.Errorf("sparse: SV has halted")

// New validates the configuration and starts an SV run.
func New(cfg Config, src *sample.Source) (*SV, error) {
	if cfg.T < 1 {
		return nil, fmt.Errorf("sparse: T %d must be ≥ 1", cfg.T)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("sparse: K %d must be ≥ 1", cfg.K)
	}
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("sparse: alpha %v must be positive", cfg.Alpha)
	}
	if cfg.Sensitivity <= 0 {
		return nil, fmt.Errorf("sparse: sensitivity %v must be positive", cfg.Sensitivity)
	}
	if err := (mech.Params{Eps: cfg.Eps, Delta: cfg.Delta}).Validate(); err != nil {
		return nil, err
	}
	var eps0 float64
	if cfg.PureDP {
		eps0 = cfg.Eps / float64(cfg.T)
	} else {
		if cfg.Delta == 0 {
			return nil, fmt.Errorf("sparse: delta must be positive (advanced composition); set PureDP for delta = 0")
		}
		var err error
		eps0, _, err = mech.SplitBudget(cfg.Eps, cfg.Delta, cfg.T)
		if err != nil {
			return nil, err
		}
	}
	sv := &SV{cfg: cfg, src: src, epsEpoch: eps0}
	sv.refreshThreshold()
	return sv, nil
}

// refreshThreshold draws the new epoch's noisy threshold: 3α/4 + Lap(2Δ/ε₀).
func (sv *SV) refreshThreshold() {
	sv.noisyThresh = 0.75*sv.cfg.Alpha + sv.src.Laplace(2*sv.cfg.Sensitivity/sv.epsEpoch)
}

// Query consumes the true value q(D) of the next query (the caller computes
// it; SV owns all noise) and returns true for ⊤, false for ⊥. After SV has
// halted it returns ErrHalted; callers of the PMW algorithm treat that as
// the global stop signal.
func (sv *SV) Query(value float64) (bool, error) {
	if sv.halted {
		return false, ErrHalted
	}
	sv.seen++
	nu := sv.src.Laplace(4 * sv.cfg.Sensitivity / sv.epsEpoch)
	top := value+nu >= sv.noisyThresh
	if top {
		sv.tops++
		if sv.tops >= sv.cfg.T {
			sv.halted = true
		} else {
			sv.refreshThreshold()
		}
	}
	if sv.seen >= sv.cfg.K && !sv.halted {
		sv.halted = true
	}
	return top, nil
}

// Export is a serializable snapshot of an SV run: the epoch counters, the
// current epoch's already-drawn noisy threshold, and the position of the
// noise stream. The Config is not part of the snapshot — the owner re-derives
// it from its own restored configuration — so FromExport can verify the two
// agree instead of trusting the file.
type Export struct {
	Tops        int          `json:"tops"`
	Seen        int          `json:"seen"`
	Halted      bool         `json:"halted"`
	NoisyThresh float64      `json:"noisy_thresh"`
	Src         sample.State `json:"src"`
}

// Export snapshots the run. Restoring with FromExport under the same Config
// continues the ⊥/⊤ stream bit-identically: the pending threshold is carried
// over verbatim and future noise replays from the recorded stream position.
func (sv *SV) Export() Export {
	return Export{
		Tops:        sv.tops,
		Seen:        sv.seen,
		Halted:      sv.halted,
		NoisyThresh: sv.noisyThresh,
		Src:         sv.src.State(),
	}
}

// FromExport reconstructs an SV run mid-stream from a snapshot and the same
// Config the original run was created with.
func FromExport(cfg Config, ex Export) (*SV, error) {
	// New validates cfg and derives the per-epoch budget; its construction
	// draw on the throwaway source is discarded along with the source, and
	// the recorded pending threshold + stream position take over.
	sv, err := New(cfg, sample.New(0))
	if err != nil {
		return nil, err
	}
	if ex.Tops < 0 || ex.Tops > cfg.T {
		return nil, fmt.Errorf("sparse: snapshot tops %d outside [0, %d]", ex.Tops, cfg.T)
	}
	if ex.Seen < 0 || ex.Seen > cfg.K {
		return nil, fmt.Errorf("sparse: snapshot seen %d outside [0, %d]", ex.Seen, cfg.K)
	}
	if math.IsNaN(ex.NoisyThresh) || math.IsInf(ex.NoisyThresh, 0) {
		return nil, fmt.Errorf("sparse: snapshot threshold %v is not finite", ex.NoisyThresh)
	}
	if !ex.Halted && (ex.Tops >= cfg.T || ex.Seen >= cfg.K) {
		return nil, fmt.Errorf("sparse: snapshot says live but counters (%d tops, %d seen) exhaust (T=%d, K=%d)", ex.Tops, ex.Seen, cfg.T, cfg.K)
	}
	src, err := sample.FromState(ex.Src)
	if err != nil {
		return nil, err
	}
	sv.src = src
	sv.noisyThresh = ex.NoisyThresh
	sv.tops = ex.Tops
	sv.seen = ex.Seen
	sv.halted = ex.Halted
	return sv, nil
}

// Halted reports whether SV has stopped (T tops reached or k queries seen).
func (sv *SV) Halted() bool { return sv.halted }

// MinDatasetSize returns the sample-size requirement of Theorem 3.1 for the
// given scale parameter S (with Δ = 3S/n the theorem reads
// n ≥ 256·S·√(T·log(2/δ)·log(4k/β)) / (ε·α)); experiments use it to choose
// n so that SV's accuracy guarantee is in force.
func MinDatasetSize(s float64, cfg Config, beta float64) int {
	if beta <= 0 || beta >= 1 {
		beta = 0.05
	}
	t := float64(cfg.T)
	k := float64(cfg.K)
	n := 256 * s * math.Sqrt(t*math.Log(2/cfg.Delta)*math.Log(4*k/beta)) / (cfg.Eps * cfg.Alpha)
	return int(n) + 1
}
