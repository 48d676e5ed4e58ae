package service

import (
	"errors"
	"net/http"
	"sync"
	"testing"
)

// TestHTTPAccountantDiscovery checks the accountant names are exposed over
// HTTP.
func TestHTTPAccountantDiscovery(t *testing.T) {
	_, base := startServer(t)
	var got struct {
		Accountants []string `json:"accountants"`
		Default     string   `json:"default"`
	}
	if st := doJSON(t, "GET", base+"/v1/accountants", nil, &got); st != 200 {
		t.Fatalf("accountants: status %d", st)
	}
	if len(got.Accountants) < 3 || got.Default != "advanced" {
		t.Fatalf("accountants = %+v", got)
	}
}

// TestHTTPUnknownAccountant checks an unknown accountant name is a
// client error, not a server fault.
func TestHTTPUnknownAccountant(t *testing.T) {
	_, base := startServer(t)
	var errResp struct {
		Error string `json:"error"`
	}
	st := doJSON(t, "POST", base+"/v1/sessions", map[string]any{"accountant": "renyi"}, &errResp)
	if st != http.StatusBadRequest {
		t.Fatalf("unknown accountant: status %d, %+v", st, errResp)
	}
	if errResp.Error == "" {
		t.Fatal("unknown accountant: empty error body")
	}
}

// TestHTTPAccountantLifecycle is the end-to-end accounting path for every
// accountant: create a session naming it, answer queries until
// the budget rejects with 429, and require the status endpoint's remaining
// budget to decrease monotonically along the way. It also verifies the
// acceptance ordering: at identical creation parameters, the zcdp session
// sustains a strictly larger update budget than the advanced one.
func TestHTTPAccountantLifecycle(t *testing.T) {
	_, base := startServer(t)
	// K above the advanced horizon so zcdp has room to extend it.
	params := func(acct string) map[string]any {
		return map[string]any{"k": 6, "tbudget": 2, "accountant": acct}
	}
	updatesMax := map[string]int{}
	for _, acct := range []string{"basic", "advanced", "zcdp"} {
		var sess SessionStatus
		if st := doJSON(t, "POST", base+"/v1/sessions", params(acct), &sess); st != 201 {
			t.Fatalf("%s: create: status %d", acct, st)
		}
		if sess.Accountant != acct {
			t.Fatalf("%s: created with accountant %q", acct, sess.Accountant)
		}
		if sess.EpsRemaining <= 0 || sess.EpsRemaining > sess.EpsBudget {
			t.Fatalf("%s: initial remaining %v outside (0, %v]", acct, sess.EpsRemaining, sess.EpsBudget)
		}
		updatesMax[acct] = sess.UpdatesMax

		lastRemaining := sess.EpsRemaining
		var got429 bool
		for i := 0; i < 12 && !got429; i++ {
			var res QueryResult
			var errResp struct {
				Error string `json:"error"`
			}
			st := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query", distinctSpec(i), &res)
			switch st {
			case 200:
				// Remaining must never increase, and ⊤ answers must
				// strictly decrease it.
				if res.EpsRemaining > lastRemaining+1e-12 {
					t.Fatalf("%s: remaining rose %v → %v", acct, lastRemaining, res.EpsRemaining)
				}
				if res.Top && !(res.EpsRemaining < lastRemaining) {
					t.Fatalf("%s: ⊤ answer left remaining at %v", acct, res.EpsRemaining)
				}
				lastRemaining = res.EpsRemaining
				// The status endpoint agrees with the query response.
				var st2 SessionStatus
				if code := doJSON(t, "GET", base+"/v1/sessions/"+sess.ID, nil, &st2); code != 200 {
					t.Fatalf("%s: status: %d", acct, code)
				}
				if st2.EpsRemaining != res.EpsRemaining {
					t.Fatalf("%s: status remaining %v != query remaining %v", acct, st2.EpsRemaining, res.EpsRemaining)
				}
			case http.StatusTooManyRequests:
				got429 = true
			default:
				doJSON(t, "GET", base+"/v1/sessions/"+sess.ID, nil, &errResp)
				t.Fatalf("%s: query %d: status %d", acct, i, st)
			}
		}
		if !got429 {
			t.Fatalf("%s: never exhausted the budget", acct)
		}
		var final SessionStatus
		if st := doJSON(t, "GET", base+"/v1/sessions/"+sess.ID, nil, &final); st != 200 || !final.Exhausted {
			t.Fatalf("%s: final status %d %+v, want exhausted", acct, st, final)
		}
	}
	if updatesMax["zcdp"] <= updatesMax["advanced"] {
		t.Errorf("zcdp updates_max = %d, want > advanced %d at identical (ε, δ, α)",
			updatesMax["zcdp"], updatesMax["advanced"])
	}
	t.Logf("updates_max by accountant: %v", updatesMax)
}

// TestHTTPAccountantParamsRejected checks accountants take no parameters:
// a create that sends accountant_params is a 400 from the strict decoder
// and opens no session.
func TestHTTPAccountantParamsRejected(t *testing.T) {
	m, base := startServer(t)
	var errResp struct {
		Error string `json:"error"`
	}
	body := map[string]any{"accountant": "advanced", "accountant_params": map[string]any{"delta_prime": 1e-8}}
	if st := doJSON(t, "POST", base+"/v1/sessions", body, &errResp); st != http.StatusBadRequest || errResp.Error == "" {
		t.Fatalf("create with accountant_params: status %d, %+v", st, errResp)
	}
	if n := m.OpenSessions(); n != 0 {
		t.Fatalf("rejected create opened %d sessions", n)
	}
}

// TestConcurrentSharedSessionAccountants hammers one session per
// accountant from concurrent queriers and status readers; under -race (the
// CI default) this proves the accountant needs no serialization beyond the
// session mutex on the query path, while lock-free status reads hit the
// accountant's own mutex concurrently.
func TestConcurrentSharedSessionAccountants(t *testing.T) {
	m := testManager(t, Limits{})
	for _, acct := range []string{"basic", "advanced", "zcdp"} {
		s, err := m.CreateSession(SessionParams{K: 6, Accountant: acct})
		if err != nil {
			t.Fatalf("%s: %v", acct, err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(2)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < 4; q++ {
					if _, err := s.Query(distinctSpec(w*4 + q)); err != nil && !errors.Is(err, ErrBudgetExhausted) {
						t.Errorf("%s: query: %v", acct, err)
						return
					}
				}
			}(w)
			go func() {
				defer wg.Done()
				last := s.Status().EpsRemaining
				for q := 0; q < 20; q++ {
					st := s.Status()
					if st.EpsRemaining > last+1e-12 {
						t.Errorf("%s: remaining rose %v → %v", acct, last, st.EpsRemaining)
						return
					}
					last = st.EpsRemaining
				}
			}()
		}
		wg.Wait()
		if st := s.Status(); st.QueriesUsed != 6 || !st.Exhausted {
			t.Fatalf("%s: final status %+v", acct, st)
		}
	}
}
