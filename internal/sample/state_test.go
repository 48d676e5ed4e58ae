package sample

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestStreamMatchesStdlib pins the load-bearing property of countingSource:
// wrapping the runtime generator must not change any variate, or every
// seeded experiment and golden test in the repo silently shifts.
func TestStreamMatchesStdlib(t *testing.T) {
	s := New(42)
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		switch i % 6 {
		case 0:
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("draw %d: Float64 %v != stdlib %v", i, got, want)
			}
		case 1:
			// Split seeds its child with one Int63 draw.
			if got, want := s.Split().State().Seed, ref.Int63(); got != want {
				t.Fatalf("draw %d: Split seed %v != stdlib Int63 %v", i, got, want)
			}
		case 2:
			if got, want := s.Gaussian(0, 1), ref.NormFloat64(); got != want {
				t.Fatalf("draw %d: Gaussian %v != stdlib %v", i, got, want)
			}
		case 3:
			if got, want := s.Intn(1000), ref.Intn(1000); got != want {
				t.Fatalf("draw %d: Intn %v != stdlib %v", i, got, want)
			}
		case 4:
			if got, want := s.Exponential(1), ref.ExpFloat64(); got != want {
				t.Fatalf("draw %d: Exponential %v != stdlib %v", i, got, want)
			}
		case 5:
			p, q := s.Perm(10), ref.Perm(10)
			for j := range p {
				if p[j] != q[j] {
					t.Fatalf("draw %d: Perm %v != stdlib %v", i, p, q)
				}
			}
		}
	}
}

// TestStateRoundTrip checks FromState continues a stream bit-identically,
// across every sampler, including through a JSON round trip of the state.
func TestStateRoundTrip(t *testing.T) {
	s := New(7)
	// Burn a mixed prefix so the position is nontrivial.
	for i := 0; i < 137; i++ {
		s.Laplace(1.5)
		s.Gaussian(0, 2)
		s.Gumbel(1)
		s.Bernoulli(0.3)
		s.UnitVec(3)
	}
	st := s.State()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("state JSON round trip changed %+v → %+v", st, back)
	}
	r, err := FromState(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if a, b := s.Laplace(0.7), r.Laplace(0.7); a != b {
			t.Fatalf("draw %d after restore: %v != %v", i, a, b)
		}
		if a, b := s.Gaussian(0, 1), r.Gaussian(0, 1); a != b {
			t.Fatalf("draw %d after restore: Gaussian %v != %v", i, a, b)
		}
		if a, b := s.Split().Float64(), r.Split().Float64(); a != b {
			t.Fatalf("draw %d after restore: Split child diverged", i)
		}
	}
	if s.State() != r.State() {
		t.Fatalf("positions diverged: %+v vs %+v", s.State(), r.State())
	}
}

// TestStateOfFreshSource checks a zero-draw state restores to the seed.
func TestStateOfFreshSource(t *testing.T) {
	st := New(99).State()
	if st.Draws != 0 || st.Seed != 99 {
		t.Fatalf("fresh state %+v", st)
	}
	r, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r.Float64(), New(99).Float64(); a != b {
		t.Fatalf("restored fresh source diverged: %v != %v", a, b)
	}
}

// TestFromStateRejectsAbsurdPosition checks the replay bound: states come
// from files, and a corrupt draw count must not hang recovery.
func TestFromStateRejectsAbsurdPosition(t *testing.T) {
	if _, err := FromState(State{Seed: 1, Draws: MaxReplayDraws + 1}); err == nil {
		t.Fatal("absurd replay position accepted")
	}
}
