package mdp

import (
	"errors"
	"fmt"
	"math"

	"buanalysis/internal/obs"
)

// diffBlock is the fixed state-block size over which the stationary
// pass's L1 residuals are partially summed. Chunk boundaries are
// aligned to it, and the block partial sums are folded in block order,
// so every residual — a sum, the one reduction that is not
// order-independent in floating point — is bit-identical for every
// worker count.
const diffBlock = 4096

// regenBudget bounds the sweeps of one regeneration cycle. A cycle from
// a recurrent state drains in tens to a few hundred sweeps on this
// repository's models; one that has not drained within the budget
// started from a transient (or rarely visited) state and is restarted
// or abandoned instead of run on.
const regenBudget = 2048

// policyChain is the Markov chain induced by a fixed policy, stored
// transposed (incoming edges per state) so the power iteration is a
// gather: next[s] depends only on pi, making the sweep trivially
// parallel with deterministic per-state accumulation order.
type policyChain struct {
	inOff  []int32
	inSrc  []int32
	inProb []float64
}

// transpose builds the incoming-edge arrays of the policy's chain from
// the compacted transition layout (duplicates already merged). Edges
// are emitted in source-state order, which fixes the per-state
// summation order independent of the worker count.
func (m *Model) transpose(pol Policy) policyChain {
	n := m.numStates
	c := policyChain{inOff: make([]int32, n+1)}
	slot := func(s int) int32 { return m.stateOff[s] + int32(pol[s]) }
	total := 0
	for s := 0; s < n; s++ {
		k := slot(s)
		for j := m.csaOff[k]; j < m.csaOff[k+1]; j++ {
			c.inOff[m.ctto[j]+1]++
			total++
		}
	}
	for s := 0; s < n; s++ {
		c.inOff[s+1] += c.inOff[s]
	}
	c.inSrc = make([]int32, total)
	c.inProb = make([]float64, total)
	pos := make([]int32, n)
	copy(pos, c.inOff[:n])
	for s := 0; s < n; s++ {
		k := slot(s)
		for j := m.csaOff[k]; j < m.csaOff[k+1]; j++ {
			d := m.ctto[j]
			c.inSrc[pos[d]] = int32(s)
			c.inProb[pos[d]] = m.ctprob[j]
			pos[d]++
		}
	}
	return c
}

// Stationary-pass kernel selectors for stationaryRun.chunk.
const (
	opCycle = iota
	opLazy
)

// stationaryRun is the state of one stationary-distribution pass: the
// transposed chain, two iterate buffers, the block partial sums every
// sweep reduces through, and one sweep body installed on the pool that
// dispatches on mode, so repeated sweeps allocate nothing.
type stationaryRun struct {
	chain     policyChain
	pi, next  []float64
	blockSums []float64
	pool      *sweepPool
	body      func(w, lo, hi int)
	mode      int
	regen     int     // opCycle: the regeneration state
	tau       float64 // opLazy: the self-loop weight
	sweeps    int
}

// chunk is the sweep body. Its L1 step is a per-block partial sum over
// a diffBlock-aligned range, folded in block order by sweep.
func (r *stationaryRun) chunk(_, lo, hi int) {
	pi, next := r.pi, r.next
	inOff, inSrc, inProb := r.chain.inOff, r.chain.inSrc, r.chain.inProb
	for b := lo; b < hi; b += diffBlock {
		end := min(b+diffBlock, hi)
		bsum := 0.0
		switch r.mode {
		case opCycle:
			// next = e_r + pi·P with every transition into r dropped.
			for s := b; s < end; s++ {
				v := 1.0
				if s != r.regen {
					v = 0
					for j := inOff[s]; j < inOff[s+1]; j++ {
						v += inProb[j] * pi[inSrc[j]]
					}
				}
				next[s] = v
				bsum += math.Abs(v - pi[s])
			}
		case opLazy:
			keep := 1 - r.tau
			for s := b; s < end; s++ {
				sum := 0.0
				for j := inOff[s]; j < inOff[s+1]; j++ {
					sum += inProb[j] * pi[inSrc[j]]
				}
				v := r.tau*pi[s] + keep*sum
				next[s] = v
				bsum += math.Abs(v - pi[s])
			}
		}
		r.blockSums[b/diffBlock] = bsum
	}
}

// sweep runs one sweep of the given kernel, swaps the iterate buffers
// and returns the L1 step.
func (r *stationaryRun) sweep(mode int) float64 {
	r.mode = mode
	r.pool.run(r.body)
	r.sweeps++
	r.pi, r.next = r.next, r.pi
	total := 0.0
	for _, bs := range r.blockSums {
		total += bs
	}
	return total
}

// cycle accumulates the visit sums of one regeneration cycle through
// regen: after t sweeps pi[s] is the expected number of visits to s in
// the first t steps of a cycle that starts at regen and ends on its
// first return, and each sweep's L1 step is the mass not yet returned.
// cycle runs until that mass drops below stop or budget sweeps pass,
// and reports whether the cycle drained; if it did not, pi - next is
// the mass still out.
func (r *stationaryRun) cycle(regen int, stop float64, budget int) bool {
	clear(r.pi)
	r.pi[regen] = 1
	r.regen = regen
	for it := 0; it < budget; it++ {
		if r.sweep(opCycle) < stop {
			return true
		}
	}
	return false
}

// StationaryDistribution computes the stationary distribution of the Markov
// chain induced by a fixed policy. The chain must be unichain (a single
// recurrent class plus possibly transient states); all chains in this
// repository regenerate through a base state and qualify.
//
// The estimate comes from one regeneration cycle: the expected visits to
// each state between two visits to a regeneration state r, normalized,
// are the stationary distribution whenever r is recurrent. The cycle
// starts at state 0 (the base state of the BU and Bitcoin models) and
// runs until the mass that has not yet returned to r drops below
// Epsilon/4. A cycle that does not drain within a bounded budget — r
// transient, as state 0 is under the Bitcoin baseline's optimal
// policies, or very rarely visited — is restarted once from the state
// holding the most of the remaining mass; if that fails too the
// estimate falls back to the uniform vector. Either way the estimate is
// only a starting point: it is accepted by power iteration on the lazy
// chain tau*I + (1-tau)*P, which stops at an L1 step below Epsilon
// exactly as a uniform start would. From a drained cycle the first
// lazy step already passes, because a cycle estimate's L1 step is at
// most twice the undrained mass.
func (m *Model) StationaryDistribution(pol Policy, opts Options) ([]float64, error) {
	return m.stationary(pol, opts, true)
}

// stationary is StationaryDistribution with the regeneration-cycle start
// switchable off (regen false starts the power iteration from the
// uniform vector, the reference the cycle start is tested against).
func (m *Model) stationary(pol Policy, opts Options, regen bool) ([]float64, error) {
	if len(pol) != m.numStates {
		return nil, errors.New("mdp: policy length mismatch")
	}
	opts = opts.withDefaults()
	n := m.numStates
	r := &stationaryRun{
		chain:     m.transpose(pol),
		pi:        make([]float64, n),
		next:      make([]float64, n),
		blockSums: make([]float64, (n+diffBlock-1)/diffBlock),
		pool:      newSweepPool(n, effectiveWorkers(opts.Parallelism, n, minAutoStatesPerWorker), diffBlock),
	}
	r.body = r.chunk
	defer r.pool.close()

	start, restarted, drained := 0, false, false
	if regen {
		budget := min(regenBudget, opts.MaxIterations)
		drained = r.cycle(start, opts.Epsilon/4, budget)
		if !drained {
			start, restarted = argmaxDiff(r.pi, r.next), true
			drained = r.cycle(start, opts.Epsilon/4, budget)
		}
	}
	if drained {
		total := 0.0
		for _, v := range r.pi {
			total += v
		}
		for s := range r.pi {
			r.pi[s] /= total
		}
	} else {
		for s := range r.pi {
			r.pi[s] = 1 / float64(n)
		}
	}

	r.tau = opts.Aperiodicity
	if r.tau == 0 {
		r.tau = 0.05
	}
	diff := math.Inf(1)
	converged := false
	for it := 0; it < opts.MaxIterations; it++ {
		if diff = r.sweep(opLazy); diff < opts.Epsilon {
			converged = true
			break
		}
	}
	stationarySweepsTotal.Add(int64(r.sweeps))
	if tr := opts.Tracer; tr != nil && converged {
		detail := fmt.Sprintf("regen=%d", start)
		switch {
		case !drained:
			detail = "fallback=uniform"
		case restarted:
			detail += " restart"
		}
		tr.Emit(obs.Event{Kind: "solver.done", Solver: "stationary", Iter: r.sweeps,
			Residual: diff, Detail: detail})
	}
	if !converged {
		return nil, errors.New("mdp: stationary distribution power iteration did not converge")
	}
	return r.pi, nil
}

// argmaxDiff returns the lowest index at which a - b is largest.
func argmaxDiff(a, b []float64) int {
	best, arg := math.Inf(-1), 0
	for s := range a {
		if d := a[s] - b[s]; d > best {
			best, arg = d, s
		}
	}
	return arg
}

// Rates reports the long-run per-step rates of the Num and Den reward
// streams under a fixed policy.
func (m *Model) Rates(pol Policy, opts Options) (num, den float64, err error) {
	pi, err := m.StationaryDistribution(pol, opts)
	if err != nil {
		return 0, 0, err
	}
	for s := 0; s < m.numStates; s++ {
		k := m.stateOff[s] + int32(pol[s])
		num += pi[s] * m.eNum[k]
		den += pi[s] * m.eDen[k]
	}
	return num, den, nil
}

// StateVisitRate reports the long-run fraction of steps spent in states for
// which keep returns true, under a fixed policy. It is used for diagnostics
// such as the fraction of time the blockchain is forked.
func (m *Model) StateVisitRate(pol Policy, keep func(s int) bool, opts Options) (float64, error) {
	pi, err := m.StationaryDistribution(pol, opts)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for s, p := range pi {
		if keep(s) {
			total += p
		}
	}
	return total, nil
}
