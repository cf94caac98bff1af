package mdp

import (
	"math/rand"
	"testing"
)

// Bridges for the external test package (stationary_ext_test.go), which
// runs the stationary pass on real BU models and therefore cannot be
// package mdp: bumdp imports mdp.

const DiffBlock = diffBlock

// RandomChain compiles randomBuilder(seed, n, maxActs) and draws a
// random policy on it from the same source.
func RandomChain(t *testing.T, seed int64, n, maxActs int) (*Model, Policy) {
	rng := rand.New(rand.NewSource(seed))
	m := mustCompile(t, randomBuilder(rng, n, maxActs))
	return m, randomPolicy(rng, m)
}

// UniformStartStationary is StationaryDistribution started from the
// uniform vector instead of a regeneration cycle.
func (m *Model) UniformStartStationary(pol Policy, opts Options) ([]float64, error) {
	return m.stationary(pol, opts, false)
}
