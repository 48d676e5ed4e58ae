package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mech"
	"repro/internal/mw"
	"repro/internal/sample"
	"repro/internal/sparse"
)

// snapshot.go is the durability boundary of the mechanism: everything a
// Server accumulates during an interaction — and nothing it can re-derive —
// captured in one serializable value. The contract, pinned by golden tests,
// is bit-identity: a Server restored from a Snapshot answers every future
// query with exactly the bytes the uninterrupted Server would have
// released, spends exactly the same budget, and halts at the same point.
// That holds because each component snapshot is exact (log-space MW
// weights, the SV's pending noisy threshold, the accountant's streaming
// ledger) and because all randomness replays from recorded sample.State
// stream positions.
//
// A Snapshot deliberately excludes the configuration and the private
// dataset: both belong to the operator and are re-supplied at restore,
// which lets Restore *verify* them (re-deriving the Figure-3 parameters
// and comparing) instead of trusting a file to define the privacy budget.
// Diagnostic traces (Config.Trace) are also not part of the snapshot —
// they are experiment output, not mechanism state.

// Snapshot is the complete mutable state of a Server mid-interaction.
type Snapshot struct {
	// Params are the derived Figure-3 parameters at snapshot time, recorded
	// so Restore can detect configuration or dataset drift: a restore whose
	// re-derived parameters differ is refused.
	Params Params `json:"params"`
	// Answered is the query counter.
	Answered int `json:"answered"`
	// Src is the oracle-noise stream position.
	Src sample.State `json:"src"`
	// SV is the sparse-vector run (counters, pending threshold, its own
	// noise stream).
	SV sparse.Export `json:"sv"`
	// MW is the multiplicative-weights hypothesis (log-weight vector).
	// Dense engine only; zero-valued under the factored engine.
	MW mw.Export `json:"mw"`
	// MWF is the product-form hypothesis of the factored engine (per-junta
	// log-weight tables). Nil under the dense engine, so dense snapshots
	// serialize byte-identically to before the field existed.
	MWF *mw.FactoredExport `json:"mwf,omitempty"`
	// Accountant is the privacy ledger.
	Accountant mech.AccountantState `json:"accountant"`
}

// Snapshot captures the server's current state. The server is unaffected;
// the caller owns serialization (internal/persist wraps snapshots in
// versioned envelopes).
func (s *Server) Snapshot() *Snapshot {
	snap := &Snapshot{
		Params:     s.params,
		Answered:   s.answered,
		Src:        s.src.State(),
		SV:         s.sv.Export(),
		Accountant: s.acct.Export(),
	}
	if s.fstate != nil {
		ex := s.fstate.Export()
		snap.MWF = &ex
	} else {
		snap.MW = s.state.Export()
	}
	return snap
}

// Restore reconstructs a mid-interaction Server from cfg, the private
// dataset, and a snapshot. cfg and data must be the ones the original
// server was built from: Restore re-runs New's full derivation (parameter
// validation, accountant construction, horizon certification) and refuses
// the snapshot if the re-derived parameters differ from the recorded ones,
// so a changed budget, oracle, TBudget, or dataset universe cannot be
// silently grafted onto old state. The engine is the snapshot's:
// factored when it carries MWF, dense otherwise. The restored server
// continues the interaction bit-identically to the uninterrupted original.
func Restore(cfg Config, data *dataset.Dataset, snap *Snapshot) (*Server, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	// newServer performs every construction-time check and derivation,
	// under the engine the snapshot was taken with; the throwaway source
	// (and the SV draw it feeds) is fully replaced by the recorded stream
	// states below.
	srv, err := newServer(cfg, data, sample.New(0), snap.MWF != nil)
	if err != nil {
		return nil, err
	}
	if srv.params != snap.Params {
		return nil, fmt.Errorf("core: snapshot parameters %+v do not match re-derived %+v (configuration or dataset drift)", snap.Params, srv.params)
	}
	if snap.Answered < 0 || snap.Answered > cfg.K {
		return nil, fmt.Errorf("core: snapshot answered %d outside [0, %d]", snap.Answered, cfg.K)
	}
	sv, err := sparse.FromExport(svConfig(cfg, srv.params), snap.SV)
	if err != nil {
		return nil, err
	}
	if srv.fstate != nil {
		fst, err := mw.FactoredFromExport(srv.fu, *snap.MWF)
		if err != nil {
			return nil, err
		}
		if fst.Eta() != srv.params.Eta || fst.Scale() != cfg.S {
			return nil, fmt.Errorf("core: snapshot MW parameters (η=%v, S=%v) do not match derived (η=%v, S=%v)",
				fst.Eta(), fst.Scale(), srv.params.Eta, cfg.S)
		}
		srv.fstate = fst
	} else {
		st, err := mw.FromExport(data.U, snap.MW)
		if err != nil {
			return nil, err
		}
		if st.Eta() != srv.params.Eta || st.Scale() != cfg.S {
			return nil, fmt.Errorf("core: snapshot MW parameters (η=%v, S=%v) do not match derived (η=%v, S=%v)",
				st.Eta(), st.Scale(), srv.params.Eta, cfg.S)
		}
		srv.state = st.SetEngine(srv.eng)
	}
	if err := srv.acct.Restore(snap.Accountant); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	src, err := sample.FromState(snap.Src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	srv.src = src
	srv.sv = sv
	srv.answered = snap.Answered
	return srv, nil
}
