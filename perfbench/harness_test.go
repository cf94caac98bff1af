package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false},    // 9.9 samples beyond p90
		{100, 90, true},    // exactly 10 beyond
		{175, 90, true},    // repro's cells: 17 beyond
		{600, 99, false},   // farm's jobs: 6 beyond p99
		{999, 99, false},   // 9.99 beyond
		{1000, 99, true},   // exactly 10 beyond
		{600, 90, true},    // farm's p90: 60 beyond
		{200000, 99, true}, // serve's requests
	} {
		if got := tailOK(tc.n, tc.p); got != tc.want {
			t.Errorf("tailOK(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestKeyStreamDeterministicAndSkewed(t *testing.T) {
	draw := func(seed int64, stream int) []int {
		ks := newKeyStream(seed, stream, serveKeys)
		out := make([]int, 20000)
		for i := range out {
			out[i] = ks.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed and stream gave two key sequences")
	}
	if reflect.DeepEqual(a, draw(8, 0)) || reflect.DeepEqual(a, draw(7, 1)) {
		t.Fatal("another seed or stream gave the same key sequence")
	}
	counts := make(map[int]int)
	for _, k := range a {
		if k < 0 || k >= serveKeys {
			t.Fatalf("key index %d outside [0, %d)", k, serveKeys)
		}
		counts[k]++
	}
	freq := make([]int, 0, len(counts))
	for _, c := range counts {
		freq = append(freq, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freq)))
	// Zipf(1.1): the top key draws a large share, and the tail still
	// reaches far more keys than the 512-entry memory LRU holds.
	if share := float64(freq[0]) / float64(len(a)); share < 0.1 {
		t.Errorf("top key share %.3f, want a skewed law", share)
	}
	if len(counts) <= 512 {
		t.Errorf("only %d distinct keys drawn, want a working set beyond the LRU", len(counts))
	}
}

// gridKeys derives the store key of every cell of a generated grid.
func gridKeys(t *testing.T, cells []gridCell, model bumdp.IncentiveModel) []string {
	t.Helper()
	var keys []string
	for _, c := range cells {
		beta, gamma := c.Ratio.Split(c.Alpha)
		k, err := expstore.BUSolveKey(bumdp.Params{Alpha: c.Alpha, Beta: beta, Gamma: gamma,
			Setting: bumdp.Setting1, Model: model}, bumdp.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

func TestAlphaGridDeterministicAdmissibleDistinct(t *testing.T) {
	for _, tc := range []struct {
		name  string
		step  float64
		want  int
		model bumdp.IncentiveModel
	}{
		{"serve", 0.001, serveKeys, bumdp.Compliant},
		{"farm", 0.003, farmJobs, bumdp.NonCompliant},
	} {
		for _, seed := range []int64{1, 2, 999, 123456} {
			cells := alphaGrid(seed, 0.01, tc.step, tc.want)
			if !reflect.DeepEqual(cells, alphaGrid(seed, 0.01, tc.step, tc.want)) {
				t.Fatalf("%s seed %d: grid not deterministic", tc.name, seed)
			}
			if len(cells) != tc.want {
				t.Fatalf("%s seed %d: %d cells, want %d", tc.name, seed, len(cells), tc.want)
			}
			seen := make(map[string]bool)
			for i, k := range gridKeys(t, cells, tc.model) {
				c := cells[i]
				if !c.Ratio.Admissible(c.Alpha) || c.Alpha <= 0 {
					t.Errorf("%s seed %d: inadmissible cell alpha=%g %s", tc.name, seed, c.Alpha, c.Ratio.Name)
				}
				if seen[k] {
					t.Errorf("%s seed %d: duplicate key for alpha=%g %s", tc.name, seed, c.Alpha, c.Ratio.Name)
				}
				seen[k] = true
			}
		}
		if reflect.DeepEqual(alphaGrid(1, 0.01, tc.step, tc.want), alphaGrid(2, 0.01, tc.step, tc.want)) {
			t.Errorf("%s: seeds 1 and 2 gave the same grid", tc.name)
		}
	}
}

func TestCheckAgainstTolerance(t *testing.T) {
	const ref = 0.2624
	if err := checkAgainst(ref+0.9e-4, ref); err != nil {
		t.Errorf("0.9e-4 off should pass: %v", err)
	}
	if err := checkAgainst(ref-0.9e-4, ref); err != nil {
		t.Errorf("-0.9e-4 off should pass: %v", err)
	}
	if err := checkAgainst(ref+1.1e-4, ref); err == nil {
		t.Error("1.1e-4 off should fail")
	}
	if err := checkAgainst(ref-1.1e-4, ref); err == nil {
		t.Error("-1.1e-4 off should fail")
	}
}

func TestAssertNoMisses(t *testing.T) {
	snap := func(storeMisses, shared, solveMisses, solveErrors int64) statsz {
		var s statsz
		s.Store.Misses, s.Store.Shared = storeMisses, shared
		s.Endpoints = map[string]endpointStats{
			solveEndpoint: {Misses: solveMisses, Errors: solveErrors},
		}
		return s
	}
	before := snap(2000, 0, 2000, 0)
	if err := assertNoMisses(before, snap(2000, 0, 2000, 0)); err != nil {
		t.Errorf("an all-hit phase failed: %v", err)
	}
	for name, after := range map[string]statsz{
		"store miss":    snap(2001, 0, 2000, 0),
		"joined solve":  snap(2000, 1, 2000, 0),
		"endpoint miss": snap(2000, 0, 2001, 0),
		"error":         snap(2000, 0, 2000, 1),
	} {
		if assertNoMisses(before, after) == nil {
			t.Errorf("%s passed the zero-miss assertion", name)
		}
	}
}

func TestReferenceCoversEveryCell(t *testing.T) {
	cells, err := reproCells()
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]refCell
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 175 || len(ref) != len(cells) {
		t.Fatalf("%d cells, %d reference entries; want 175 each", len(cells), len(ref))
	}
	ids := make(map[string]bool)
	for _, c := range cells {
		if ids[c.ID] {
			t.Errorf("duplicate cell %s", c.ID)
		}
		ids[c.ID] = true
		if _, ok := ref[c.ID]; !ok {
			t.Errorf("no reference for %s", c.ID)
		}
	}
	order := reproOrder(cells, ref, 3)
	if !reflect.DeepEqual(order, reproOrder(cells, ref, 3)) {
		t.Error("hand-out order not deterministic per seed")
	}
	if reflect.DeepEqual(order, reproOrder(cells, ref, 4)) {
		t.Error("seeds 3 and 4 gave the same hand-out order")
	}
	for i := 1; i < len(order); i++ {
		cost, prev := ref[cells[order[i]].ID].CostMs, ref[cells[order[i-1]].ID].CostMs
		if cost+1 > 2*(prev+1) {
			t.Fatalf("cell %s (%.1f ms) handed out after %s (%.1f ms)", cells[order[i]].ID,
				cost, cells[order[i-1]].ID, prev)
		}
	}
}

// TestTracedCellStoresTheSolveBlob pins the traced repro path to the
// untraced one: both go through expstore.SolveBU, so the stored blob is
// what ComputeBUSolve produces, and the traced spans carry the record's
// solver counts and the compiled model's size.
func TestTracedCellStoresTheSolveBlob(t *testing.T) {
	cells, err := reproCells()
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]refCell
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	var c reproCell
	for _, cand := range cells {
		if !cand.btc && !cand.boundary && (c.ID == "" || ref[cand.ID].CostMs < ref[c.ID].CostMs) {
			c = cand
		}
	}
	st, err := expstore.Open(expstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	v, err := solveReproCell(st, c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainst(v, ref[c.ID].Value); err != nil {
		t.Errorf("%s: %v", c.ID, err)
	}
	key, err := expstore.BUSolveKey(c.params, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := st.Get(key)
	if !ok {
		t.Fatalf("%s: traced solve stored nothing under %s", c.ID, key)
	}
	local, err := expstore.ComputeBUSolve(c.params, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolve(stored, local) {
		t.Errorf("%s: traced blob differs from ComputeBUSolve's\n%s\n%s", c.ID, stored, local)
	}
	var rec expstore.BUSolveRecord
	if err := json.Unmarshal(stored, &rec); err != nil {
		t.Fatal(err)
	}
	sum := summarize(tr.all())
	solve, comp := sum["expstore.solve_bu"], sum["bumdp.compile"]
	if solve.n != 1 || comp.n != 1 || sum["core.cell"].n != 1 {
		t.Fatalf("spans: %d solve, %d compile, %d cell; want one each", solve.n, comp.n, sum["core.cell"].n)
	}
	if solve.counts["probes"] != float64(rec.Stats.Probes) || solve.counts["opt_sweeps"] != float64(rec.Stats.OptSweeps) ||
		solve.counts["eval_sweeps"] != float64(rec.Stats.EvalSweeps) || rec.Stats.OptSweeps == 0 {
		t.Errorf("solve span counts %v do not match the record's stats %+v", solve.counts, rec.Stats)
	}
	if comp.counts["states"] != float64(rec.States) {
		t.Errorf("compile span has %v states, the record %d", comp.counts["states"], rec.States)
	}
}

func TestSameSolveIgnoresOnlyRunFields(t *testing.T) {
	rec := expstore.BUSolveRecord{Utility: 0.25, States: 10}
	rec.Stats.Duration, rec.Stats.Workers = 5, 1
	a, _ := json.Marshal(rec)
	rec.Stats.Duration, rec.Stats.Workers = 7, 2
	b, _ := json.Marshal(rec)
	if !sameSolve(a, b) {
		t.Error("records differing only in duration and workers compare unequal")
	}
	rec.Utility = 0.2500001
	c, _ := json.Marshal(rec)
	if sameSolve(a, c) {
		t.Error("records with different utilities compare equal")
	}
}

func TestQueueReplayJournalDeterministic(t *testing.T) {
	jobs, _, err := farmBatch(5)
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:20]
	run := func() map[string]metric {
		o := &outcome{layers: map[string]metric{}}
		if err := replayQueue(env{work: t.TempDir()}, o, newTracer(), jobs); err != nil {
			t.Fatal(err)
		}
		return o.layers
	}
	a, b := run(), run()
	for _, name := range []string{"jobqueue.journal_bytes", "jobqueue.journal_rewrite_bytes"} {
		if a[name].Value == 0 || a[name] != b[name] {
			t.Errorf("%s: %v then %v, want one nonzero value", name, a[name], b[name])
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json this package must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// serve runs by hand only; its layers come from farm's traced run.
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"repro", "farm"}) {
		t.Errorf("BENCHMARK.json has workloads %v, want repro and farm", names)
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the harness lacks", name)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, got, m)
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for name, unit := range map[string]string{
		"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
		"latency_p90_ms": "ms", "peak_rss_mb": "MiB",
	} {
		if e2e[name] != unit {
			t.Errorf("end_to_end %s has unit %q, want %q", name, e2e[name], unit)
		}
	}
}
