package bitcoin

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"buanalysis/internal/mdp"
	"buanalysis/internal/obs"
)

func solve(t *testing.T, p Params) Result {
	t.Helper()
	a, err := New(p)
	if err != nil {
		t.Fatalf("New(%+v): %v", p, err)
	}
	res, err := a.Solve()
	if err != nil {
		t.Fatalf("Solve(%+v): %v", p, err)
	}
	return res
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Alpha: 0},
		{Alpha: 0.5},
		{Alpha: -0.1},
		{Alpha: 0.3, TieWinProb: 1.5},
		{Alpha: 0.3, TieWinProb: -0.1},
		{Alpha: 0.3, MaxLead: 2},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: New accepted invalid params %+v", i, p)
		}
	}
}

// TestTable3BitcoinBaseline reproduces the bottom block of Table 3: the
// optimal combined selfish-mining / double-spending attack on Bitcoin
// with four confirmations and RDS = 10.
func TestTable3BitcoinBaseline(t *testing.T) {
	cases := []struct {
		tie, alpha, want float64
	}{
		{0.5, 0.10, 0.10},
		{0.5, 0.15, 0.15},
		{0.5, 0.20, 0.20},
		{0.5, 0.25, 0.38},
		{1.0, 0.10, 0.11},
		{1.0, 0.15, 0.18},
		{1.0, 0.20, 0.30},
		{1.0, 0.25, 0.52},
	}
	for _, tc := range cases {
		res := solve(t, Params{Alpha: tc.alpha, TieWinProb: tc.tie, Objective: AbsoluteReward})
		if math.Abs(res.Utility-tc.want) > 6e-3 {
			t.Errorf("u_A2(alpha=%g, tie=%g) = %.4f, want %.2f",
				tc.alpha, tc.tie, res.Utility, tc.want)
		}
	}
}

// TestDoubleSpendUnprofitableForSmallMiners supports the paper's
// comparison: in Bitcoin, double-spending with four confirmations is not
// profitable below 10% mining power even when the attacker wins every
// tie, whereas in BU even a 1% miner profits.
func TestDoubleSpendUnprofitableForSmallMiners(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.05} {
		res := solve(t, Params{Alpha: alpha, TieWinProb: 1, Objective: AbsoluteReward})
		if res.Utility > alpha+1e-3 {
			t.Errorf("alpha=%g: Bitcoin double-spend utility %.4f exceeds honest %.4f",
				alpha, res.Utility, alpha)
		}
	}
}

// TestOptimalSelfishMiningValues checks the relative-revenue solver
// against known optimal selfish-mining values (Sapirshtein et al.):
// below the threshold the optimum is honest mining; at alpha = 1/3 and
// 0.35 with gamma = 0 the optimal revenues are 0.33705 and 0.37077.
func TestOptimalSelfishMiningValues(t *testing.T) {
	cases := []struct {
		alpha, gamma, want float64
	}{
		{0.10, 0, 0.10},
		{0.20, 0, 0.20},
		{1.0 / 3, 0, 0.33705},
		{0.35, 0, 0.37077},
	}
	for _, tc := range cases {
		res := solve(t, Params{Alpha: tc.alpha, TieWinProb: tc.gamma, Objective: RelativeRevenue})
		if math.Abs(res.Utility-tc.want) > 5e-4 {
			t.Errorf("u_A1(alpha=%.4f, gamma=%g) = %.5f, want %.5f",
				tc.alpha, tc.gamma, res.Utility, tc.want)
		}
	}
}

// TestOptimalDominatesEyalSirer: the solved optimum must weakly dominate
// the closed-form Eyal-Sirer strategy revenue wherever the latter is
// profitable.
func TestOptimalDominatesEyalSirer(t *testing.T) {
	for _, tc := range []struct{ alpha, gamma float64 }{
		{0.30, 0.5}, {0.35, 0.5}, {0.40, 0}, {0.45, 0.5}, {0.35, 1},
	} {
		res := solve(t, Params{Alpha: tc.alpha, TieWinProb: tc.gamma, Objective: RelativeRevenue})
		es := EyalSirerRevenue(tc.alpha, tc.gamma)
		if res.Utility < es-1e-4 {
			t.Errorf("optimal %.5f below Eyal-Sirer %.5f at (%g, %g)",
				res.Utility, es, tc.alpha, tc.gamma)
		}
		if res.Utility < tc.alpha-1e-6 {
			t.Errorf("optimal %.5f below honest %.5f", res.Utility, tc.alpha)
		}
	}
}

// TestOrphanRateAtMostOne verifies the paper's Section 4.4 comparison
// point: in Bitcoin a non-profit attacker orphans at most one compliant
// block per attacker block (equality reachable only with perfect tie
// winning).
func TestOrphanRateAtMostOne(t *testing.T) {
	for _, tc := range []struct{ alpha, gamma float64 }{
		{0.10, 0}, {0.30, 0.5}, {0.30, 1}, {0.45, 1},
	} {
		res := solve(t, Params{Alpha: tc.alpha, TieWinProb: tc.gamma, Objective: OrphanRate})
		if res.Utility > 1+1e-4 {
			t.Errorf("u_A3(alpha=%g, gamma=%g) = %.4f, want <= 1", tc.alpha, tc.gamma, res.Utility)
		}
	}
	// With gamma = 1 the bound is tight.
	res := solve(t, Params{Alpha: 0.30, TieWinProb: 1, Objective: OrphanRate})
	if math.Abs(res.Utility-1) > 1e-3 {
		t.Errorf("u_A3 at gamma=1 = %.4f, want 1", res.Utility)
	}
}

// TestHonestEquivalentPolicy: the publish-immediately policy (override
// whenever ahead, adopt otherwise) earns exactly alpha per block.
func TestHonestEquivalentPolicy(t *testing.T) {
	a, err := New(Params{Alpha: 0.3, TieWinProb: 0.5, Objective: AbsoluteReward})
	if err != nil {
		t.Fatal(err)
	}
	pol := make(mdp.Policy, len(a.States))
	for i, s := range a.States {
		want := Adopt
		if s.A > s.H {
			want = Override
		}
		pol[i] = a.Model.ActionSlot(i, want)
		if pol[i] < 0 {
			t.Fatalf("state %v lacks action %s", s, ActionName(want))
		}
	}
	ev, err := a.Model.EvaluatePolicy(pol, mdp.Options{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Gain-0.3) > 1e-6 {
		t.Errorf("honest-equivalent gain = %g, want 0.3", ev.Gain)
	}
}

// TestMonotoneInTieWinProb: utility is non-decreasing in the tie-win
// probability for every objective.
func TestMonotoneInTieWinProb(t *testing.T) {
	for _, obj := range []Objective{RelativeRevenue, AbsoluteReward, OrphanRate} {
		prev := -1.0
		for _, g := range []float64{0, 0.5, 1} {
			res := solve(t, Params{Alpha: 0.3, TieWinProb: g, Objective: obj})
			if res.Utility < prev-1e-4 {
				t.Errorf("objective %d: utility decreased from %.5f to %.5f at gamma=%g",
					obj, prev, res.Utility, g)
			}
			prev = res.Utility
		}
	}
}

// TestTruncationInsensitive: enlarging MaxLead beyond the default does
// not change the Table 3 values at the solver tolerance.
func TestTruncationInsensitive(t *testing.T) {
	small := solve(t, Params{Alpha: 0.25, TieWinProb: 0.5, Objective: AbsoluteReward, MaxLead: 40})
	large := solve(t, Params{Alpha: 0.25, TieWinProb: 0.5, Objective: AbsoluteReward, MaxLead: 80})
	if math.Abs(small.Utility-large.Utility) > 1e-4 {
		t.Errorf("truncation sensitivity: MaxLead 40 -> %.6f, 80 -> %.6f",
			small.Utility, large.Utility)
	}
}

// TestModelStructure is a property test over random parameters: the
// compiled model is well-formed and the optimum dominates honest mining.
func TestModelStructure(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{
			Alpha:      0.05 + 0.4*rng.Float64(),
			TieWinProb: rng.Float64(),
			MaxLead:    8 + rng.Intn(8),
			Objective:  Objective(rng.Intn(3)),
		}
		a, err := New(p)
		if err != nil {
			return false
		}
		res, err := a.Solve()
		if err != nil {
			return false
		}
		if res.Utility < a.HonestUtility()-1e-4 {
			t.Logf("seed %d: utility %.5f below honest %.5f", seed, res.Utility, a.HonestUtility())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestEyalSirerKnownValues(t *testing.T) {
	// At the gamma=0.5 threshold alpha=0.25, SM1 revenue equals honest.
	if got := EyalSirerRevenue(0.25, 0.5); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("EyalSirer(0.25, 0.5) = %.6f, want 0.25", got)
	}
	// At gamma=1 any alpha profits: revenue strictly above alpha.
	if got := EyalSirerRevenue(0.1, 1); got <= 0.1 {
		t.Errorf("EyalSirer(0.1, 1) = %.6f, want > 0.1", got)
	}
}

// TestPolicyRatioAttainsOptimum evaluates the optimal selfish-mining
// policy independently of the ratio search, through its stationary
// distribution. Under these policies the base state 0 is never
// revisited (stationary mass 0), so the stationary pass's first
// regeneration cycle cannot drain and it restarts from a recurrent
// state.
func TestPolicyRatioAttainsOptimum(t *testing.T) {
	a, err := New(Params{Alpha: 0.25, TieWinProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var done obs.Event
	opts := mdp.Options{Tracer: obs.TracerFunc(func(e obs.Event) { done = e })}
	got, err := a.Model.PolicyRatio(res.Policy, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stationary pass: %d sweeps, %s", done.Iter, done.Detail)
	if math.Abs(got-res.Utility) > 1e-4 {
		t.Errorf("policy ratio %.6f, solved optimum %.6f", got, res.Utility)
	}
	if !strings.HasSuffix(done.Detail, " restart") {
		t.Errorf("stationary pass detail %q, want a restart after state 0", done.Detail)
	}
}
