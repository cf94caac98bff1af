package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/mdp"
)

// reproWorkers is how many cells are solved at once, as butables does
// on this benchmark's 2-core reference box.
const reproWorkers = 2

// boundaryGateWindow shortens the sticky gate of the alpha = beta
// boundary cell (alpha 25%, 1:2, setting 2). At the paper's 144 blocks
// the cell takes minutes; at 48 it keeps the same slow mixing at a size
// that fits in every run.
const boundaryGateWindow = 48

// reproSetups is how many times the repro set-up runs; setup_s is the
// median.
const reproSetups = 5

//go:embed reference.json
var referenceJSON []byte

// reproCell is one cell of the paper's tables.
type reproCell struct {
	ID       string
	params   bumdp.Params
	opts     bumdp.SolveOptions
	btc      bool    // a Bitcoin baseline cell (Table 3, bottom)
	tie      float64 // the baseline's tie-win probability
	boundary bool
}

// reproCells lists the cells butables -all solves for Tables 2-4 (the
// setting-2 Table-2 column without its 1:2 cell), the boundary cell at
// boundaryGateWindow, and the Bitcoin baseline.
func reproCells() ([]reproCell, error) {
	var cells []reproCell
	for _, n := range []int{2, 3, 4} {
		t, err := core.PaperTable(n, core.SweepConfig{}, false)
		if err != nil {
			return nil, err
		}
		for _, job := range t.Jobs {
			cfg := job.Cfg.Normalized(job.Model)
			for _, c := range cfg.Grid(job.Model) {
				if c.Skipped || (n == 2 && c.Setting == bumdp.Setting2 && c.Ratio == "1:2") {
					continue
				}
				p, o := cfg.CellParams(c)
				o.Parallelism = 1 // the cells, not the sweeps, run in parallel
				cells = append(cells, reproCell{
					ID:     fmt.Sprintf("T%d/model%d/set%d/a=%g/%s", n, c.Model, c.Setting, c.Alpha, c.Ratio),
					params: p, opts: o,
				})
			}
		}
	}
	beta, gamma := core.Ratio{Name: "1:2", B: 1, G: 2}.Split(0.25)
	cells = append(cells, reproCell{
		ID: fmt.Sprintf("boundary/gate%d/a=0.25/1:2", boundaryGateWindow),
		params: bumdp.Params{Alpha: 0.25, Beta: beta, Gamma: gamma, Setting: bumdp.Setting2,
			Model: bumdp.Compliant, GateWindow: boundaryGateWindow},
		opts:     bumdp.SolveOptions{Parallelism: 1},
		boundary: true,
	})
	for _, tie := range []float64{0.5, 1.0} {
		for _, alpha := range []float64{0.10, 0.15, 0.20, 0.25} {
			cells = append(cells, reproCell{
				ID:     fmt.Sprintf("btc/a=%g/tie=%g", alpha, tie),
				params: bumdp.Params{Alpha: alpha}, btc: true, tie: tie,
			})
		}
	}
	return cells, nil
}

// refCell is one reference-table entry: the cell's value at the
// reference commit and its serial solve time there, which orders the
// hand-out.
type refCell struct {
	Value  float64 `json:"value"`
	CostMs float64 `json:"cost_ms"`
}

// reproOrder is the seeded hand-out order: cells in descending
// power-of-two buckets of their reference cost, permuted within a
// bucket by the seed, so the slowest cells never run alone at the end
// and the wall time does not depend on the seed.
func reproOrder(cells []reproCell, ref map[string]refCell, seed int64) []int {
	bucket := func(i int) int { return int(math.Floor(math.Log2(ref[cells[i].ID].CostMs + 1))) }
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(cells))
	sort.SliceStable(order, func(a, b int) bool { return bucket(order[a]) > bucket(order[b]) })
	return order
}

// reproSetup is what the timed phase needs: a fresh memory-only store,
// the reference table and the cell order.
type reproSetup struct {
	store *expstore.Store
	ref   map[string]refCell
	cells []reproCell
	order []int
}

// warmCell is the set-up's warm-up solve: a setting-2 cell outside the
// tables, big enough to grow the heap to the size the timed cells need,
// so the first timed cells do not pay for page faults.
var warmCell = bumdp.Params{Alpha: 0.18, Beta: 0.41, Gamma: 0.41, Setting: bumdp.Setting2, Model: bumdp.NonCompliant}

// setUpRepro builds the timed phase's inputs and runs the warm-up
// solve on a throwaway store.
func setUpRepro(seed int64) (reproSetup, error) {
	var s reproSetup
	if err := json.Unmarshal(referenceJSON, &s.ref); err != nil {
		return s, fmt.Errorf("reading reference.json: %w", err)
	}
	cells, err := reproCells()
	if err != nil {
		return s, err
	}
	s.cells, s.order = cells, reproOrder(cells, s.ref, seed)
	warm, err := expstore.Open(expstore.Config{})
	if err != nil {
		return s, err
	}
	if _, _, _, err := expstore.SolveBU(warm, warmCell, bumdp.SolveOptions{Parallelism: 1}); err != nil {
		return s, fmt.Errorf("warm-up solve: %w", err)
	}
	s.store, err = expstore.Open(expstore.Config{})
	return s, err
}

func runRepro(e env, tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
	var setups []float64
	var s reproSetup
	for i := 0; i < reproSetups; i++ {
		t0 := time.Now()
		var err error
		if s, err = setUpRepro(e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	order := s.order
	if e.compare {
		// A traced run's comparison pass solves every other cell of the
		// hand-out order, the boundary cell aside, so that the traced run
		// ends in time.
		var half []int
		for i, idx := range order {
			if i%2 == 0 && !s.cells[idx].boundary {
				half = append(half, idx)
			}
		}
		order = half
	}
	n := len(order)
	lat := make([]time.Duration, n)  // each cell's SolveBU call
	done := make([]time.Duration, n) // each cell's time to result
	vals := make([]float64, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < reproWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				c := s.cells[order[i]]
				t0 := time.Now()
				vals[i], errs[i] = solveReproCell(s.store, c, tr)
				lat[i] = time.Since(t0)
				done[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	o.attempted = n
	o.compareShare = 0.6
	o.opTimes = make(map[string]time.Duration, n)
	for i, idx := range order {
		c := s.cells[idx]
		o.opTimes[c.ID] = lat[i]
		if errs[i] != nil {
			o.failed++
			o.fail("%s: %v", c.ID, errs[i])
			continue
		}
		want, ok := s.ref[c.ID]
		if !ok {
			o.failed++
			o.fail("%s: no reference value", c.ID)
			continue
		}
		if err := checkAgainst(vals[i], want.Value); err != nil {
			o.failed++
			o.fail("%s: %v", c.ID, err)
		}
	}
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["wall_s"] = metric{wall.Seconds(), "s"}
	o.e2e["ops_per_s"] = metric{float64(n) / wall.Seconds(), "1/s"}
	o.e2e["peak_rss_mb"] = metric{rss, "MiB"}
	// The whole table set is asked for at once, so a cell's latency is
	// its time to result, as a job's is on the farm; the SolveBU calls'
	// own distribution is the core layer's.
	if !e.compare { // too few cells for a p90 with 10 beyond it
		latencyMetrics(o, done)
	}
	o.size = map[string]int{"cells": n, "workers": reproWorkers}
	if tr != nil {
		o.spans = tr.all()
		reproLayers(o, wall)
		cell := sortedMs(lat)
		o.layers["core.cell_p50_ms"] = metric{percentile(cell, 50), "ms"}
		o.layers["core.cell_p90_ms"] = metric{percentile(cell, 90), "ms"}
	}
	return o, nil
}

// solveReproCell solves one cell through the store with the one call
// butables makes per cell, expstore.SolveBU. The traced pass wraps that
// call in a span whose solver counts come from the stored record's
// Stats, and first compiles the cell's model once more on its own,
// because bumdp.New's time and the model's size are not in the record.
func solveReproCell(st *expstore.Store, c reproCell, tr *tracer) (float64, error) {
	root := tr.start("core.cell", c.ID, nil)
	defer root.end(nil)
	if c.btc {
		b := expstore.CachedBitcoinBaseline(st, []float64{c.params.Alpha}, []float64{c.tie})
		return b[0].Value, b[0].Err
	}
	var m *mdp.Model
	if tr != nil {
		np, err := c.params.Normalized()
		if err != nil {
			return 0, err
		}
		sp := tr.start("bumdp.compile", "", root)
		a, err := bumdp.New(np)
		if err != nil {
			sp.end(nil)
			return 0, err
		}
		m = a.Model
		sp.end(map[string]float64{"states": float64(m.NumStates()), "transitions": float64(m.NumTransitions())})
	}
	name := "expstore.solve_bu"
	if c.boundary {
		name = "expstore.solve_bu_boundary"
	}
	sp := tr.start(name, "", root)
	rec, _, hit, err := expstore.SolveBU(st, c.params, c.opts)
	if err == nil && hit {
		err = fmt.Errorf("answered from cache; every cell must be solved")
	}
	if err != nil {
		sp.end(nil)
		return 0, err
	}
	if tr != nil {
		s := rec.Stats
		sweepEquiv := float64(s.OptSweeps) + float64(s.EvalSweeps)/3
		sp.end(map[string]float64{
			"solve_ms": s.Duration.Seconds() * 1e3,
			"probes":   float64(s.Probes), "opt_sweeps": float64(s.OptSweeps), "eval_sweeps": float64(s.EvalSweeps),
			"sweep_equiv": sweepEquiv, "slots_eliminated": float64(s.SlotsEliminated),
			// Work the sweeps touched: sweep-equivalents times transitions,
			// and the computed bytes one sweep streams over the compacted
			// layout (destination index and probability per transition,
			// offset and reward per slot, two values per state).
			"transition_sweeps": sweepEquiv * float64(m.NumCompactTransitions()),
			"bytes_per_sweep":   float64(12*m.NumCompactTransitions() + 12*m.NumStateActions() + 16*m.NumStates()),
		})
	}
	return rec.Utility, nil
}

// reproLayers derives the repro workload's per-layer metrics.
func reproLayers(o *outcome, wall time.Duration) {
	sum := summarize(o.spans)
	solve, bnd := sum["expstore.solve_bu"], sum["expstore.solve_bu_boundary"]
	c := map[string]float64{}
	for _, s := range []spanSummary{solve, bnd} {
		for k, v := range s.counts {
			c[k] += v
		}
	}
	l := o.layers
	l["mdp.solve_ms"] = metric{c["solve_ms"], "ms"}
	l["mdp.probes"] = metric{c["probes"], "count"}
	if c["probes"] > 0 {
		l["mdp.ms_per_probe"] = metric{c["solve_ms"] / c["probes"], "ms"}
	}
	l["mdp.opt_sweeps"] = metric{c["opt_sweeps"], "count"}
	l["mdp.eval_sweeps"] = metric{c["eval_sweeps"], "count"}
	l["mdp.sweep_equiv"] = metric{c["sweep_equiv"], "count"}
	if c["transition_sweeps"] > 0 {
		l["mdp.ns_per_transition"] = metric{c["solve_ms"] * 1e6 / c["transition_sweeps"], "ns"}
	}
	if n := solve.n + bnd.n; n > 0 {
		l["mdp.computed_bytes_per_sweep"] = metric{c["bytes_per_sweep"] / float64(n), "B"}
	}
	l["mdp.slots_eliminated"] = metric{c["slots_eliminated"], "count"}
	l["mdp.boundary_ms"] = metric{bnd.counts["solve_ms"], "ms"}
	l["mdp.boundary_sweep_equiv"] = metric{bnd.counts["sweep_equiv"], "count"}

	comp := sum["bumdp.compile"]
	l["bumdp.compile_ms"] = metric{comp.total.Seconds() * 1e3, "ms"}
	l["bumdp.states"] = metric{comp.counts["states"], "count"}
	l["bumdp.transitions"] = metric{comp.counts["transitions"], "count"}

	l["core.busy_share"] = metric{sum["core.cell"].total.Seconds() / (wall.Seconds() * reproWorkers), "ratio"}
}

func round(v float64, digits int) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', digits, 64), 64)
	return r
}

// writeReference solves every repro cell and writes the values as the
// reference table the checks compare against.
func writeReference(e env, path string) error {
	cells, err := reproCells()
	if err != nil {
		return err
	}
	st, err := expstore.Open(expstore.Config{})
	if err != nil {
		return err
	}
	ref := make(map[string]refCell, len(cells))
	for _, c := range cells {
		t0 := time.Now()
		v, err := solveReproCell(st, c, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", c.ID, err)
		}
		ms := time.Since(t0).Seconds() * 1e3
		fmt.Fprintf(os.Stderr, "%-40s %12.7f %8.1f ms\n", c.ID, v, ms)
		ref[c.ID] = refCell{Value: round(v, 9), CostMs: round(ms, 1)}
	}
	blob, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
