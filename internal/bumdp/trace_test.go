package bumdp

import (
	"math"
	"testing"

	"buanalysis/internal/obs"
)

// TestConvergenceTraceGolden is the observability layer's golden test
// on a real paper cell (alpha=0.25, 1:1 propagation, setting 1,
// compliant model): tracing must not perturb the solve in any way, the
// per-iteration residual series must be eventually non-increasing
// within each operator (the span seminorm of each operator contracts
// once the aperiodicity transform takes hold), every solve's final
// residual must sit below the configured epsilon, and the fork-rate
// pass must close the stream with exactly one "stationary" solver.done.
func TestConvergenceTraceGolden(t *testing.T) {
	beta, gamma := ratioParams(0.25, 1, 1)
	p := Params{Alpha: 0.25, Beta: beta, Gamma: gamma, Setting: Setting1, Model: Compliant}
	a, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Fast tolerances keep the test quick; the trace invariants do not
	// depend on them.
	opts := SolveOptions{RatioTol: 1e-3, Epsilon: 1e-6}

	plain, err := a.SolveWith(opts)
	if err != nil {
		t.Fatalf("untraced solve: %v", err)
	}

	sink := obs.NewRingSink(1 << 20)
	traced := opts
	traced.Tracer = sink
	withTrace, err := a.SolveWith(traced)
	if err != nil {
		t.Fatalf("traced solve: %v", err)
	}

	// Bit-identical: tracing reads the solve, never steers it.
	if plain.Utility != withTrace.Utility {
		t.Errorf("utility differs with tracing: %v vs %v", plain.Utility, withTrace.Utility)
	}
	if plain.ForkRate != withTrace.ForkRate {
		t.Errorf("fork rate differs with tracing: %v vs %v", plain.ForkRate, withTrace.ForkRate)
	}
	if plain.Probes != withTrace.Probes ||
		plain.Stats.Iterations != withTrace.Stats.Iterations ||
		plain.Stats.Residual != withTrace.Stats.Residual {
		t.Errorf("stats differ with tracing: %+v vs %+v", plain.Stats, withTrace.Stats)
	}
	if len(plain.Policy) != len(withTrace.Policy) {
		t.Fatalf("policy lengths differ")
	}
	for i := range plain.Policy {
		if plain.Policy[i] != withTrace.Policy[i] {
			t.Fatalf("policy differs at state %d with tracing", i)
		}
	}

	events := sink.Events()
	if int64(len(events)) != sink.Total() {
		t.Fatalf("ring sink overflowed (%d events, %d retained): enlarge the ring", sink.Total(), len(events))
	}

	// Split the stream into individual solves and check each residual
	// series: strictly positive until convergence, eventually
	// non-increasing, ending below epsilon.
	var series [][]obs.Event
	var cur []obs.Event
	probes, dones, brackets, stationary := 0, 0, 0, 0
	for i, e := range events {
		switch {
		case e.Kind == "solver.done" && e.Solver == "stationary":
			// The fork-rate pass reports once, after the ratio search,
			// with no per-sweep events: its sweep count, its final L1
			// step and its regeneration state.
			stationary++
			if i != len(events)-1 || len(cur) != 0 {
				t.Errorf("stationary solver.done at event %d of %d, want last", i+1, len(events))
			}
			if e.Iter < 2 || e.Residual <= 0 || e.Residual >= opts.Epsilon || e.Detail != "regen=0" {
				t.Errorf("stationary solver.done = %+v, want >= 2 sweeps, 0 < residual < %g, regen=0", e, opts.Epsilon)
			}
			continue
		}
		switch e.Kind {
		case "solver.iter":
			cur = append(cur, e)
		case "solver.done":
			if len(cur) == 0 {
				t.Fatal("solver.done without preceding solver.iter events")
			}
			if e.Iter != cur[len(cur)-1].Iter {
				t.Errorf("solver.done iter %d != last solver.iter %d", e.Iter, cur[len(cur)-1].Iter)
			}
			series = append(series, cur)
			cur = nil
			dones++
		case "ratio.probe":
			probes++
		case "ratio.bracket":
			brackets++
		case "ratio.done":
			if math.Abs(e.Rho-plain.Utility) > 1e-12 {
				t.Errorf("ratio.done rho = %v, want utility %v", e.Rho, plain.Utility)
			}
		}
	}
	if dones == 0 {
		t.Fatal("no completed solver traces captured")
	}
	if stationary != 1 {
		t.Errorf("stationary solver.done events = %d, want 1 (the fork-rate pass)", stationary)
	}
	if probes != plain.Probes {
		t.Errorf("ratio.probe events = %d, want %d (solve's probe count)", probes, plain.Probes)
	}
	if brackets == 0 {
		t.Error("no ratio.bracket events captured")
	}

	for si, s := range series {
		// Iterations must count 1..n contiguously.
		for i, e := range s {
			if e.Iter != i+1 {
				t.Fatalf("series %d: iter %d at position %d", si, e.Iter, i)
			}
			if e.Residual <= 0 {
				t.Errorf("series %d iter %d: residual %v not positive", si, e.Iter, e.Residual)
			}
			if e.Solver != "rvi" && e.Solver != "policy-eval" {
				t.Errorf("series %d: unexpected solver %q", si, e.Solver)
			}
			if e.SpanHi-e.SpanLo != e.Residual {
				t.Errorf("series %d iter %d: span bounds inconsistent with residual", si, e.Iter)
			}
		}
		// Eventually non-increasing: residuals may wobble early while the
		// bias re-centers, but the tail of the series must be monotone
		// per operator. Optimizing ("rvi") and fixed-policy
		// ("policy-eval") sweeps interleave under modified policy
		// iteration and contract at unrelated rates, so only adjacent
		// events of the same solver are compared; full-operator
		// validation sweeps after action elimination (Detail "validate")
		// measure a different active set than their predecessor and are
		// skipped.
		tail := len(s) / 2
		for i := tail + 1; i < len(s); i++ {
			if s[i].Solver != s[i-1].Solver || s[i].Detail == "validate" || s[i-1].Detail == "validate" {
				continue
			}
			if s[i].Residual > s[i-1].Residual*(1+1e-9) {
				t.Errorf("series %d: residual increased at iter %d (%v -> %v) in the tail",
					si, s[i].Iter, s[i-1].Residual, s[i].Residual)
			}
		}
		if final := s[len(s)-1].Residual; final >= opts.Epsilon {
			t.Errorf("series %d: final residual %v >= epsilon %v", si, final, opts.Epsilon)
		}
	}
}
