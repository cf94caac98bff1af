package mdp

import "buanalysis/internal/obs"

// Package-level instruments. They are nil until Observe installs them;
// a nil *obs.Counter no-ops, so uninstrumented programs (and all tests
// that never call Observe) pay nothing.
var (
	solvesTotal           *obs.Counter
	sweepsTotal           *obs.Counter
	evalSweepsTotal       *obs.Counter
	probesTotal           *obs.Counter
	warmSolvesTotal       *obs.Counter
	warmBracketsTotal     *obs.Counter
	reparamsTotal         *obs.Counter
	dupTransTotal         *obs.Counter
	elimSlotsTotal        *obs.Counter
	stationarySweepsTotal *obs.Counter
)

// Observe registers the solver package's metrics on reg: total solves
// started, total Bellman sweeps performed, total ratio-bisection probes,
// warm-start hits (solves seeded from a previous bias, ratio searches
// seeded from a neighbor's bracket), structure-sharing model
// reparameterizations, and the sweeps of the stationary-distribution
// pass behind policy rates. Call it once at program start, before solving
// begins; the counters are plain package state, not synchronized against
// in-flight solves. A nil registry leaves the package uninstrumented.
func Observe(reg *obs.Registry) {
	solvesTotal = reg.Counter("mdp_solves_total", "Iterative solves started (RVI, policy evaluation, discounted VI).")
	sweepsTotal = reg.Counter("mdp_sweeps_total", "Bellman sweeps performed across all solves (optimizing and fixed-policy alike).")
	evalSweepsTotal = reg.Counter("mdp_eval_sweeps_total", "Cheap fixed-policy evaluation sweeps run by modified policy iteration.")
	probesTotal = reg.Counter("mdp_probes_total", "Inner average-reward probes performed by ratio bisections.")
	warmSolvesTotal = reg.Counter("mdp_warm_solves_total", "Solves that started from a warm bias instead of the cold zero vector.")
	warmBracketsTotal = reg.Counter("mdp_warm_brackets_total", "Ratio bisections that seeded their bracket from a neighboring value.")
	reparamsTotal = reg.Counter("mdp_reparams_total", "Models rebuilt by Reparameterize against a frozen structure.")
	dupTransTotal = reg.Counter("mdp_dup_transitions_total", "Duplicate same-destination transitions merged away at compile time (over-emitting builders).")
	elimSlotsTotal = reg.Counter("mdp_eliminated_slots_total", "State-action slots proven suboptimal and deactivated by action elimination.")
	stationarySweepsTotal = reg.Counter("mdp_stationary_sweeps_total", "Sweeps of the stationary-distribution pass behind policy rates (regeneration cycle plus lazy power iteration).")
}
