package mdp

import (
	"math"
	"math/rand"
	"testing"

	"buanalysis/internal/obs"
)

// stationaryTrace runs StationaryDistribution with a tracer and returns
// the distribution and the pass's "solver.done" event.
func stationaryTrace(t *testing.T, m *Model, pol Policy, opts Options) ([]float64, obs.Event) {
	t.Helper()
	var done obs.Event
	events := 0
	opts.Tracer = obs.TracerFunc(func(e obs.Event) {
		events++
		done = e
	})
	pi, err := m.StationaryDistribution(pol, opts)
	if err != nil {
		t.Fatalf("StationaryDistribution: %v", err)
	}
	if events != 1 || done.Kind != "solver.done" || done.Solver != "stationary" {
		t.Fatalf("pass emitted %d events, last %+v; want one stationary solver.done", events, done)
	}
	return pi, done
}

// transientStartBuilder generates a random unichain model in the shape
// of the Bitcoin baseline under its optimal policies: states 0 and 1
// are transient (nothing ever enters state 0, and state 1 is entered
// only from state 0), and every other state's regeneration edge leads
// to state 2 instead of 0.
func transientStartBuilder(rng *rand.Rand, n, maxActs int) tableBuilder {
	b := randomBuilder(rng, n, maxActs)
	for s := 0; s < n; s++ {
		for _, a := range b.acts[s] {
			trs := b.trans[[2]int{s, a}]
			for i := range trs {
				switch {
				case s == 0:
					// The way out of state 0: to state 1 or straight
					// into the recurrent class.
					trs[i].To = 1 + i
				case i == 1:
					trs[i].To = 2
				case trs[i].To < 2:
					trs[i].To = 2 + rng.Intn(n-2)
				}
			}
		}
	}
	return b
}

func randomPolicy(rng *rand.Rand, m *Model) Policy {
	pol := make(Policy, m.NumStates())
	for s := range pol {
		pol[s] = rng.Intn(len(m.Actions(s)))
	}
	return pol
}

// TestStationaryRegenMatchesUniformStart: on random unichain models the
// regeneration-cycle start reaches the same distribution as power
// iteration from the uniform vector, within the stopping tolerance,
// both when state 0 is recurrent (the cycle runs once from it) and
// when it is transient (the cycle restarts from the state holding the
// most mass). The uniform start is run to a tighter tolerance: stopped
// at the same L1 step it can itself sit a little over Epsilon from the
// fixed point, for instance by mass left on transient states.
func TestStationaryRegenMatchesUniformStart(t *testing.T) {
	const eps = 1e-9
	shapes := []struct {
		name      string
		build     func(*rand.Rand, int, int) tableBuilder
		transient bool
	}{
		{"recurrent state 0", randomBuilder, false},
		{"transient state 0", transientStartBuilder, true},
	}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 3 + rng.Intn(400)
			m := mustCompile(t, shape.build(rng, n, 3))
			pol := randomPolicy(rng, m)
			opts := Options{Epsilon: eps}
			got, done := stationaryTrace(t, m, pol, opts)
			want, err := m.stationary(pol, Options{Epsilon: eps / 100}, false)
			if err != nil {
				t.Fatalf("%s seed %d: uniform start: %v", shape.name, seed, err)
			}
			for s := range got {
				if d := math.Abs(got[s] - want[s]); d > eps {
					t.Fatalf("%s seed %d: pi[%d] = %v, uniform start %v (|d| = %.2g > %g)",
						shape.name, seed, s, got[s], want[s], d, eps)
				}
			}
			switch {
			case !shape.transient && done.Detail != "regen=0":
				t.Errorf("%s seed %d: detail %q, want regen=0", shape.name, seed, done.Detail)
			case shape.transient && (got[0] != 0 || done.Detail != "regen=2 restart"):
				t.Errorf("%s seed %d: pi[0] = %v, detail %q; want 0 and a restart from state 2",
					shape.name, seed, got[0], done.Detail)
			}
			if done.Residual >= eps || done.Iter < 2 {
				t.Errorf("%s seed %d: done event %+v", shape.name, seed, done)
			}
		}
	}
}

// TestStationaryFallsBackToUniformStart: a chain whose regeneration
// cycles cannot drain within the budget — state 0 transient, and the
// recurrent class two clusters joined by rare crossings — falls back to
// the uniform start and then computes exactly what it computes.
func TestStationaryFallsBackToUniformStart(t *testing.T) {
	const cross = 1e-3
	b := tableBuilder{
		n:    5,
		acts: map[int][]int{0: {0}, 1: {0}, 2: {0}, 3: {0}, 4: {0}},
		trans: map[[2]int][]Transition{
			{0, 0}: {{To: 1, Prob: 1}},
			{1, 0}: {{To: 2, Prob: 0.5}, {To: 1, Prob: 0.5 - cross}, {To: 3, Prob: cross}},
			{2, 0}: {{To: 1, Prob: 0.7}, {To: 2, Prob: 0.3}},
			{3, 0}: {{To: 4, Prob: 0.5}, {To: 3, Prob: 0.5 - cross}, {To: 1, Prob: cross}},
			{4, 0}: {{To: 3, Prob: 0.6}, {To: 4, Prob: 0.4}},
		},
	}
	m := mustCompile(t, b)
	pol := Policy{0, 0, 0, 0, 0}
	got, done := stationaryTrace(t, m, pol, Options{})
	if done.Detail != "fallback=uniform" {
		t.Fatalf("detail %q, want fallback=uniform", done.Detail)
	}
	want, err := m.stationary(pol, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	equalFloatsBitwise(t, "fallback distribution", 0, got, want)
	if done.Iter <= 2*regenBudget {
		t.Errorf("fallback counted %d sweeps, want the two cycle budgets plus the power iteration", done.Iter)
	}
}

// TestStationaryAllocationsBounded: the pass allocates a fixed number
// of buffers (the transposed chain, two iterates, the block sums, the
// pool and its body) however many sweeps it runs.
func TestStationaryAllocationsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := mustCompile(t, randomBuilder(rng, diffBlock+500, 2))
	pol := randomPolicy(rng, m)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := m.StationaryDistribution(pol, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("StationaryDistribution made %v allocations, want <= 12", allocs)
	}
}
