package mdp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"buanalysis/internal/obs"
)

// Options configure the iterative solvers. The zero value selects
// defaults suitable for the models in this repository.
type Options struct {
	// Epsilon is the span-seminorm stopping tolerance for relative value
	// iteration. Default 1e-9.
	Epsilon float64
	// MaxIterations bounds the number of sweeps (and, for policy
	// iteration, the number of improvement rounds). Default 1_000_000.
	MaxIterations int
	// Aperiodicity is the self-loop weight tau of the aperiodicity
	// transformation P' = tau*I + (1-tau)*P applied inside the sweeps.
	// The transformation leaves stationary distributions (and therefore
	// optimal policies) unchanged and scales the gain by exactly (1-tau);
	// solvers report the corrected gain. Default 0.05. Set to a negative
	// value to disable (tau = 0).
	Aperiodicity float64
	// Rho shifts the per-transition reward to Num - Rho*Den. The plain
	// average-reward solvers use Rho as given (default 0).
	Rho float64
	// EvalSweeps controls modified policy iteration in AverageReward
	// (and therefore in every SolveRatio probe): after each optimizing
	// Bellman backup the solver runs up to k cheap fixed-policy
	// evaluation sweeps of the current greedy policy — no argmax, one
	// action slot per state — before paying for the next optimizing
	// sweep. Convergence is still declared only at optimizing sweeps by
	// the standard span criterion, which bounds the optimal gain for any
	// bias vector however it was produced, so the returned gain carries
	// the same Epsilon guarantee as pure relative value iteration.
	//
	// 0 (the default) selects an adaptive budget driven by the span
	// residual: many evaluation sweeps while the span is far above
	// Epsilon, tapering to none as it closes. A positive value caps the
	// adaptive budget at that many evaluation sweeps per optimizing
	// sweep. A negative value disables evaluation sweeps entirely —
	// exact relative value iteration, the pre-MPI reference path.
	EvalSweeps int
	// NoElimination disables action elimination: the incremental
	// deactivation of (state, action) slots whose Q-value provably
	// cannot become optimal, and the periodic compaction of the active
	// transition set that lets late sweeps touch a fraction of the
	// transitions. Elimination decisions are validated by a final
	// full-operator sweep before a solve with eliminations returns, so
	// this knob affects iteration counts and wall-clock only; results
	// carry the same guarantee either way.
	NoElimination bool
	// Warm, if non-nil, seeds the bias vector (length NumStates). Reusing
	// the bias of a nearby solve (for example the previous bisection
	// probe) cuts iteration counts substantially. The slice is copied.
	// Workspace solves chain the previous solve's bias automatically;
	// Warm overrides the chained bias when both are present.
	Warm []float64
	// Parallelism is the number of worker goroutines the Bellman sweeps
	// run on. 0 (the default) selects GOMAXPROCS, falling back to the
	// serial path for models too small to amortize the per-sweep
	// synchronization; 1 forces the serial path. Any value yields
	// bit-identical results — values, policies, and iteration counts —
	// because every state update uses the same arithmetic and the
	// residual reductions are order-independent. Workspace solves run on
	// the workspace's pool and ignore this field.
	Parallelism int
	// Tracer, if non-nil, receives one "solver.iter" event per Bellman
	// sweep (residual, span bounds, greedy-policy change count), a
	// "solver.warm" event when a solve starts from a warm bias, and a
	// "solver.done" event on convergence (the stationary pass behind
	// StationaryDistribution, Rates, PolicyRatio and StateVisitRate emits
	// only its "solver.done"). Tracing never changes results:
	// the hooks read the same quantities the solver already computes, and
	// a nil Tracer costs nothing.
	Tracer obs.Tracer
}

// Normalized returns the options with every default applied, the exact
// configuration the solvers run under. Two Options values that solve
// identically normalize to the same struct (Warm, Parallelism, and
// Tracer do not affect results and are zeroed; EvalSweeps and
// NoElimination steer the iteration path and are kept), which makes
// the normalized form a stable basis for cache keys.
func (o Options) Normalized() Options {
	o = o.withDefaults()
	o.Warm = nil
	o.Parallelism = 0
	o.Tracer = nil
	return o
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 1e-9
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 1_000_000
	}
	switch {
	case o.Aperiodicity < 0:
		o.Aperiodicity = 0
	case o.Aperiodicity == 0:
		o.Aperiodicity = 0.05
	}
	return o
}

// Stats instruments a single solve.
type Stats struct {
	// Iterations is the total number of sweeps performed: optimizing
	// Bellman backups plus fixed-policy evaluation sweeps.
	Iterations int
	// OptSweeps is the number of optimizing (argmax) Bellman backups.
	OptSweeps int `json:",omitempty"`
	// EvalSweeps is the number of cheap fixed-policy evaluation sweeps
	// modified policy iteration interleaved between backups.
	EvalSweeps int `json:",omitempty"`
	// SlotsEliminated is the number of (state, action) slots action
	// elimination deactivated during the solve.
	SlotsEliminated int `json:",omitempty"`
	// Compactions is how many times the active-transition view was
	// rebuilt after eliminations.
	Compactions int `json:",omitempty"`
	// Residual is the final convergence measure: the span seminorm of
	// the last update for the average-reward solvers, the sup-norm
	// update for discounted value iteration.
	Residual float64
	// Duration is the wall-clock time of the solve.
	Duration time.Duration
	// Workers is the number of sweep workers used (1 = serial path).
	Workers int
	// Warm reports whether the solve started from a warm bias (an
	// explicit Options.Warm or a workspace's chained bias) instead of
	// the cold zero vector.
	Warm bool
}

// Result reports the outcome of an average-reward solve.
type Result struct {
	// Gain is the optimal long-run average reward per step.
	Gain float64
	// Policy attains the gain.
	Policy Policy
	// Bias is the relative value function h (defined up to a constant).
	Bias []float64
	// Iterations is the number of value-iteration sweeps performed.
	Iterations int
	// Converged reports whether the span criterion was met within
	// MaxIterations.
	Converged bool
	// Stats carries per-solve instrumentation (iterations, final
	// residual, wall time, worker count).
	Stats Stats
}

// recenterParallelMin is the model size above which the re-centering
// pass is worth a second pool barrier; below it the caller subtracts
// serially. Either way the arithmetic is elementwise and identical.
const recenterParallelMin = 1 << 14

// bellmanChunk performs one optimizing Bellman backup over the full
// action set for states [lo, hi): next[s] and pol[s] are written, and
// the chunk's span of the update d = next[s] - h[s] is returned for the
// caller's min/max reduction. It iterates the compacted transition
// layout (duplicates merged, destinations sorted); the elimination-
// aware variants in elimination.go iterate the active subset instead.
func (m *Model) bellmanChunk(h, next []float64, pol Policy, shift []float64, tau float64, lo, hi int) (slo, shi float64) {
	slo, shi = math.Inf(1), math.Inf(-1)
	keep := 1 - tau
	stateOff, csaOff := m.stateOff, m.csaOff
	ctprob, ctto := m.ctprob, m.ctto
	for s := lo; s < hi; s++ {
		best := math.Inf(-1)
		bestSlot := 0
		k0, k1 := stateOff[s], stateOff[s+1]
		for k := k0; k < k1; k++ {
			q := shift[k]
			for j := csaOff[k]; j < csaOff[k+1]; j++ {
				q += ctprob[j] * h[ctto[j]]
			}
			if q > best {
				best = q
				bestSlot = int(k - k0)
			}
		}
		v := keep*best + tau*h[s]
		next[s] = v
		pol[s] = bestSlot
		d := v - h[s]
		if d < slo {
			slo = d
		}
		if d > shi {
			shi = d
		}
	}
	return slo, shi
}

// policyChunk is bellmanChunk restricted to a fixed policy: one slot
// per state, no argmax. It is the sweep modified policy iteration runs
// between optimizing backups, several times cheaper than bellmanChunk
// because it touches only the chosen action's transitions.
func (m *Model) policyChunk(h, next []float64, pol Policy, shift []float64, tau float64, lo, hi int) (slo, shi float64) {
	slo, shi = math.Inf(1), math.Inf(-1)
	keep := 1 - tau
	stateOff, csaOff := m.stateOff, m.csaOff
	ctprob, ctto := m.ctprob, m.ctto
	for s := lo; s < hi; s++ {
		k := stateOff[s] + int32(pol[s])
		q := shift[k]
		for j := csaOff[k]; j < csaOff[k+1]; j++ {
			q += ctprob[j] * h[ctto[j]]
		}
		v := keep*q + tau*h[s]
		next[s] = v
		d := v - h[s]
		if d < slo {
			slo = d
		}
		if d > shi {
			shi = d
		}
	}
	return slo, shi
}

// reduceSpans folds per-worker spans with exact min/max, which no
// worker-count or completion-order change can perturb.
func reduceSpans(spans []wspan) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range spans {
		if spans[i].lo < lo {
			lo = spans[i].lo
		}
		if spans[i].hi > hi {
			hi = spans[i].hi
		}
	}
	return lo, hi
}

// AverageReward maximizes the long-run average of Num - Rho*Den per step
// using relative value iteration with an aperiodicity transformation,
// accelerated by default with modified policy iteration (cheap
// fixed-policy sweeps between optimizing backups; Options.EvalSweeps)
// and action elimination (Options.NoElimination). The model must be
// weakly communicating under some policy reaching a single recurrent
// class; the models in this repository regenerate through a base state
// and satisfy this.
//
// Each call runs on a transient Workspace, so repeated solves allocate
// their scratch vectors and worker pool every time; callers performing
// many solves on one model shape should hold a Workspace and call its
// AverageReward instead.
func (m *Model) AverageReward(opts Options) (Result, error) {
	opts = opts.withDefaults()
	ws := m.NewWorkspace(opts.Parallelism)
	defer ws.Close()
	return ws.AverageReward(opts)
}

// EvaluatePolicy computes the long-run average of Num - Rho*Den per step
// under a fixed policy, by relative value iteration restricted to that
// policy. The policy's chain must be unichain. Like AverageReward it
// runs on a transient Workspace.
func (m *Model) EvaluatePolicy(pol Policy, opts Options) (Result, error) {
	opts = opts.withDefaults()
	ws := m.NewWorkspace(opts.Parallelism)
	defer ws.Close()
	return ws.EvaluatePolicy(pol, opts)
}

// PolicyIteration solves the average-reward problem by Howard's policy
// iteration, using iterative policy evaluation. It returns the same gain
// as AverageReward and serves as an independent cross-check.
// Options.MaxIterations bounds the improvement rounds as well as each
// evaluation's sweeps, and the greedy-improvement step runs on the same
// worker pool as the sweeps.
func (m *Model) PolicyIteration(opts Options) (Result, error) {
	opts = opts.withDefaults()
	ws := m.NewWorkspace(opts.Parallelism)
	defer ws.Close()
	return ws.PolicyIteration(opts)
}

// ValueIteration solves the discounted problem max E[sum gamma^t (Num - Rho*Den)]
// and is provided for testing and for finite-horizon-style analyses.
// discount must be in (0, 1).
func (m *Model) ValueIteration(discount float64, opts Options) ([]float64, Policy, error) {
	if discount <= 0 || discount >= 1 {
		return nil, nil, fmt.Errorf("mdp: discount %g out of range (0,1)", discount)
	}
	opts = opts.withDefaults()
	n := m.numStates
	v := make([]float64, n)
	next := make([]float64, n)
	pol := make(Policy, n)
	shift := m.shiftedRewards(opts.Rho)
	// Standard Bellman contraction: stop when the sup-norm update is below
	// Epsilon*(1-discount)/(2*discount), guaranteeing an Epsilon-optimal value.
	stop := opts.Epsilon * (1 - discount) / (2 * discount)

	pool := newSweepPool(n, effectiveWorkers(opts.Parallelism, n, minAutoStatesPerWorker), 1)
	defer pool.close()
	worsts := make([]wspan, pool.workers())

	solvesTotal.Inc()
	tr := opts.Tracer

	for it := 0; it < opts.MaxIterations; it++ {
		pool.run(func(w, lo, hi int) {
			worsts[w].hi = m.discountedChunk(v, next, pol, shift, discount, lo, hi)
		})
		worst := 0.0
		for i := range worsts {
			if worsts[i].hi > worst {
				worst = worsts[i].hi
			}
		}
		v, next = next, v
		if tr != nil {
			tr.Emit(obs.Event{Kind: "solver.iter", Solver: "vi", Iter: it + 1, Residual: worst})
		}
		if worst < stop {
			sweepsTotal.Add(int64(it + 1))
			if tr != nil {
				tr.Emit(obs.Event{Kind: "solver.done", Solver: "vi", Iter: it + 1, Residual: worst})
			}
			return v, pol, nil
		}
	}
	sweepsTotal.Add(int64(opts.MaxIterations))
	return v, pol, errors.New("mdp: value iteration did not converge")
}

// discountedChunk performs one discounted Bellman backup for states
// [lo, hi) and returns the chunk's sup-norm update.
func (m *Model) discountedChunk(v, next []float64, pol Policy, shift []float64, discount float64, lo, hi int) (worst float64) {
	stateOff, csaOff := m.stateOff, m.csaOff
	ctprob, ctto := m.ctprob, m.ctto
	for s := lo; s < hi; s++ {
		best := math.Inf(-1)
		bestSlot := 0
		k0, k1 := stateOff[s], stateOff[s+1]
		for k := k0; k < k1; k++ {
			dot := 0.0
			for j := csaOff[k]; j < csaOff[k+1]; j++ {
				dot += ctprob[j] * v[ctto[j]]
			}
			q := shift[k] + discount*dot
			if q > best {
				best = q
				bestSlot = int(k - k0)
			}
		}
		next[s] = best
		pol[s] = bestSlot
		if d := math.Abs(best - v[s]); d > worst {
			worst = d
		}
	}
	return worst
}
