// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads against the real code and prints every
// end-to-end metric by name with its unit, checks every output, and
// ends with one JSON result line:
//
//	perfbench --workload repro|serve|farm --seed N --seconds S --trace 0|1
//
// repro reproduces the paper's MDP tables through the experiment store,
// serve drives the buserve hit path, and farm runs batches through the
// solve farm with buserve as coordinator. BENCHMARK.json gates repro
// and farm; serve runs by hand, and farm's traced run includes it. With
// --trace 1 the workload runs traced, then untraced for comparison, and
// the metrics are the per-layer numbers of the traced pass (see
// README.md). run.sh builds the binaries and is the entry point.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one pass of a workload reports: its end-to-end
// metrics, its operation accounting, the spans a traced pass recorded
// and the per-layer metrics derived from them.
type outcome struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
	// checkErrs lists every failed output check; any one makes the run
	// incorrect.
	checkErrs []string
	// size describes the workload's inputs for the provenance stamp.
	size  map[string]int
	spans []span
	// opTimes holds each operation's time by ID where a workload's
	// comparison pass runs a subset of the operations (repro's cells),
	// and compareShare is about how much of the traced pass's time that
	// subset takes (0: all of it).
	opTimes      map[string]time.Duration
	compareShare float64
}

func (o *outcome) fail(format string, args ...any) {
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
}

// env is what every workload needs from the command line.
type env struct {
	seed    int64
	seconds float64
	bin     string // directory holding the built buserve binary
	self    string // this executable, for the farm worker process
	work    string // scratch directory owned by this run
	// compare marks a traced run's untraced comparison pass, which may
	// run a subset of the workload (see runTraced).
	compare bool
}

// workloads maps each name to its runner. tr is nil on an untraced pass.
var workloads = map[string]func(env, *tracer) (*outcome, error){
	"repro": runRepro,
	"serve": runServe,
	"farm":  runFarm,
}

// subcommands are the helper modes: the farm worker process the farm
// workload starts, and the deterministic-count comparison detcheck.sh
// runs.
var subcommands = map[string]func([]string) error{
	"farm-worker":    farmWorkerMain,
	"compare-counts": compareCounts,
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		workload = flag.String("workload", "", "repro, serve or farm")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measuring time of a duration-bound workload (serve)")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
		bin      = flag.String("bin", ".bench_build/bin", "directory with the built buserve binary")
		workRoot = flag.String("work", ".bench_build/work", "scratch root; each run uses and removes its own subdirectory")
		refOut   = flag.String("write-reference", "", "repro only: write the computed cell values to this file instead of checking them")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (have repro, serve, farm)\n", *workload)
		os.Exit(2)
	}
	if err := mainErr(*workload, run, *seed, *seconds, *trace == 1, *bin, *workRoot, *refOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, run func(env, *tracer) (*outcome, error), seed int64, seconds float64, traced bool, bin, workRoot, refOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := env{seed: seed, seconds: seconds, bin: bin, self: self, work: work}
	began, steal0 := time.Now(), stealSeconds()
	if refOut != "" {
		return writeReference(e, refOut)
	}

	var out *outcome
	var res result
	if traced {
		if out, err = runTraced(run, e, began); err != nil {
			return err
		}
		if err := writeSpans(filepath.Join(filepath.Dir(workRoot), "traces"), name, seed, out.spans); err != nil {
			return err
		}
		res.Metrics = completeLayers(out.layers)
	} else {
		if out, err = runPass(run, e, "untraced", nil); err != nil {
			return err
		}
		res.Metrics = out.e2e
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.fail("metric %s is %v", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = len(out.checkErrs) == 0 && out.failed == 0 && out.attempted > 0

	printMetrics(res.Metrics)
	for _, msg := range out.checkErrs {
		fmt.Printf("CHECK FAILED: %s\n", msg)
	}
	stamp, err := json.Marshal(provenance(name, seed, traced, out.size, stealSeconds()-steal0))
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", stamp)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// provenanceStamp identifies what produced a result: the code, the
// toolchain, the machine's parallelism and the inputs.
type provenanceStamp struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Traced     bool           `json:"traced"`
	Size       map[string]int `json:"size"`
	// StealS is the CPU time the hypervisor took from this machine
	// while the run lasted: a run that lost much measured the host's
	// other tenants as well as this code.
	StealS float64 `json:"cpu_steal_s"`
	Time   string  `json:"time"`
}

func provenance(workload string, seed int64, traced bool, size map[string]int, steal float64) provenanceStamp {
	return provenanceStamp{
		Commit:     commitID(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		Size:       size,
		StealS:     steal,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// tracedBudget bounds a traced run: its untraced comparison pass runs
// only if it would end within this time of the run's start, so a traced
// run ends well within 180 s even on a slow host. A comparison pass
// that does not fit is a failed check, not a zero overhead.
const tracedBudget = 165 * time.Second

// runTraced runs the traced pass, whose per-layer metrics it reports,
// then an untraced comparison pass, and reports the tracing overhead
// as the time per operation traced against untraced. repro's
// comparison pass solves half of the cells (see runRepro), and the
// overhead compares the summed times of those cells in both passes;
// serve and farm repeat the traced pass's work and compare throughputs.
// Both passes' operations, failures and checks count.
func runTraced(run func(env, *tracer) (*outcome, error), e env, began time.Time) (*outcome, error) {
	t0 := time.Now()
	out, err := runPass(run, e, "traced", newTracer())
	if err != nil {
		return nil, err
	}
	// An untraced pass takes at most as long as the traced one.
	est := time.Since(t0) * 6 / 5
	if out.compareShare > 0 {
		est = time.Duration(float64(est) * out.compareShare)
	}
	if time.Since(began)+est > tracedBudget {
		out.fail("trace.overhead_share not measured: the untraced comparison pass would not end within %s of the start", tracedBudget)
		return out, nil
	}
	e.compare = true
	plain, err := runPass(run, e, "untraced", nil)
	if err != nil {
		return nil, err
	}
	share := plain.e2e["ops_per_s"].Value/out.e2e["ops_per_s"].Value - 1
	if len(plain.opTimes) > 0 {
		var traced, untraced time.Duration
		for id, d := range plain.opTimes {
			traced += out.opTimes[id]
			untraced += d
		}
		share = traced.Seconds()/untraced.Seconds() - 1
	}
	out.layers["trace.overhead_share"] = metric{share, "ratio"}
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.checkErrs = append(out.checkErrs, plain.checkErrs...)
	return out, nil
}

// runPass runs one pass in a scratch directory of its own.
func runPass(run func(env, *tracer) (*outcome, error), e env, name string, tr *tracer) (*outcome, error) {
	e.work = filepath.Join(e.work, name)
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	return run(e, tr)
}

// stealSeconds reads the machine's cumulative steal time from
// /proc/stat (0 where it is not available), assuming the usual 100
// clock ticks per second.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// commitID names the code under test. run.sh passes the git commit in
// PERFBENCH_COMMIT when the checkout is a repository; otherwise it
// passes a digest of the source tree, which identifies the code just
// as well.
func commitID() string {
	if c := strings.TrimSpace(os.Getenv("PERFBENCH_COMMIT")); c != "" {
		return c
	}
	return "unknown"
}

// compareCounts reads the result lines of two traced runs and checks
// that every deterministic count is identical in both.
func compareCounts(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare-counts RUN1 RUN2 (files holding a traced run's output)")
	}
	var runs [2]result
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", path, err)
		}
	}
	var diffs []string
	for _, name := range deterministicCounts {
		a, aok := runs[0].Metrics[name]
		b, bok := runs[1].Metrics[name]
		if !aok || !bok || a.Value != b.Value {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, a.Value, b.Value))
		}
		fmt.Printf("%-32s %v\n", name, a.Value)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("counts differ: %s", strings.Join(diffs, "; "))
	}
	fmt.Println("deterministic counts repeat exactly")
	return nil
}
