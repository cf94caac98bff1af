package mdp_test

import (
	"math"
	"sync"
	"testing"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
)

// setting2Cell is a Table-3 cell on the setting-2 state space (30,595
// states at the default AD): alpha 25% at propagation ratio 2:1, the
// non-compliant model, solved once per test binary.
var setting2Cell = sync.OnceValues(func() (solvedCell, error) {
	a, err := bumdp.New(bumdp.Params{Alpha: 0.25, Beta: 0.5, Gamma: 0.25,
		Setting: bumdp.Setting2, Model: bumdp.NonCompliant})
	if err != nil {
		return solvedCell{}, err
	}
	res, err := a.Solve()
	return solvedCell{a, res.Policy}, err
})

type solvedCell struct {
	a   *bumdp.Analysis
	pol mdp.Policy
}

func setting2(t *testing.T) (*bumdp.Analysis, mdp.Policy) {
	t.Helper()
	c, err := setting2Cell()
	if err != nil {
		t.Fatalf("setting-2 cell: %v", err)
	}
	return c.a, c.pol
}

// TestParallelBitIdenticalStationary exercises the stationary pass's
// sum-shaped reductions (the cycle's and the power iteration's L1
// steps) on chains larger than DiffBlock, so the
// block-aligned partial sums actually straddle multiple workers: a
// random chain and the optimal policy of a setting-2 cell.
func TestParallelBitIdenticalStationary(t *testing.T) {
	n := 2*mdp.DiffBlock + 1000
	pars := []int{2, 3, 8}
	if testing.Short() {
		n = mdp.DiffBlock + 500
		pars = []int{2}
	}
	m, pol := mdp.RandomChain(t, 8, n, 2)
	a, s2pol := setting2(t)
	for _, c := range []struct {
		name string
		m    *mdp.Model
		pol  mdp.Policy
	}{
		{"random chain", m, pol},
		{"setting-2 policy", a.Model, s2pol},
	} {
		serial, err := c.m.StationaryDistribution(c.pol, mdp.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, par := range pars {
			got, err := c.m.StationaryDistribution(c.pol, mdp.Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: Parallelism %d: %v", c.name, par, err)
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("%s: Parallelism %d differs at %d: %v vs serial %v", c.name, par, i, got[i], serial[i])
				}
			}
		}
	}
}

// TestStationarySweepsSetting2 pins the stationary pass on the
// setting-2 cell: its sweep count (a deterministic counter, the same at
// every worker count), its regeneration state, and a fork rate that
// agrees with the uniform-start power iteration within 1e-9.
func TestStationarySweepsSetting2(t *testing.T) {
	const wantSweeps = 165 // 164 cycle sweeps from state 0, then 1 lazy sweep
	a, pol := setting2(t)
	if n := a.Model.NumStates(); n != 30595 {
		t.Fatalf("setting-2 model has %d states, want 30595", n)
	}
	var done obs.Event
	opts := mdp.Options{Tracer: obs.TracerFunc(func(e obs.Event) { done = e })}
	pi, err := a.Model.StationaryDistribution(pol, opts)
	if err != nil {
		t.Fatal(err)
	}
	if done.Solver != "stationary" || done.Iter != wantSweeps || done.Detail != "regen=0" {
		t.Errorf("stationary pass: %d sweeps, detail %q; want %d sweeps from regen=0",
			done.Iter, done.Detail, wantSweeps)
	}
	uniform, err := a.Model.UniformStartStationary(pol, mdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fork, uniformFork := 0.0, 0.0
	for s, st := range a.States {
		if !st.Base() {
			fork += pi[s]
			uniformFork += uniform[s]
		}
	}
	if d := math.Abs(fork - uniformFork); d > 1e-9 {
		t.Errorf("fork rate %.12f, uniform start %.12f (|d| = %.2g > 1e-9)", fork, uniformFork, d)
	}
}
