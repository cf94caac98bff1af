package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
	"buanalysis/internal/farm"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/verify"
)

const (
	// farmJobs is the batch size: distinct non-compliant setting-1
	// solves, each a single average-reward solve.
	farmJobs = 400
	// farmSlots is the worker's lease slots.
	farmSlots = 2
	// farmPoll is the worker's idle poll, far below the timed phase so
	// the end of the batch is never rounded up to a poll step.
	farmPoll = 20 * time.Millisecond
	// farmBatches is how many batches an untraced pass times, each on a
	// fresh coordinator and worker; every end-to-end metric is the
	// median over them.
	farmBatches = 3
	// farmSetups is how many times the coordinator and worker are set up
	// for each batch, the last set-up running it; setup_s is the median
	// over all set-ups of the pass. A set-up takes some 25 ms, so a few
	// ms of jitter is a large share of one.
	farmSetups = 5
	// farmDeadline bounds the drain; a stuck batch fails the run.
	farmDeadline = 120 * time.Second
)

// farmBatch lays the seed's jobs on an alpha grid.
func farmBatch(seed int64) ([]jobqueue.Job, []bumdp.Params, error) {
	var jobs []jobqueue.Job
	var params []bumdp.Params
	for _, c := range alphaGrid(seed, 0.01, 0.003, farmJobs) {
		beta, gamma := c.Ratio.Split(c.Alpha)
		p := bumdp.Params{Alpha: c.Alpha, Beta: beta, Gamma: gamma, Setting: bumdp.Setting1, Model: bumdp.NonCompliant}
		job, err := farm.NewBUSolveJob(p, bumdp.SolveOptions{}, 0)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, job)
		params = append(params, p)
	}
	return jobs, params, nil
}

// workerProc is the farm worker process: this binary in farm-worker
// mode, waiting on stdin for the signal to start draining.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	report string
	done   chan error
}

func startWorker(e env, base, report string, traced bool) (*workerProc, error) {
	cmd := exec.Command(e.self, "farm-worker", "-coordinator", base, "-report", report,
		"-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting farm worker: %w", err)
	}
	w := &workerProc{cmd: cmd, stdin: stdin, report: report, done: make(chan error, 1)}
	ready := make(chan error, 1)
	go func() {
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err == nil && line != "ready\n" {
			err = fmt.Errorf("farm worker said %q", line)
		}
		ready <- err
		_, _ = io.Copy(io.Discard, stdout)
		w.done <- cmd.Wait()
	}()
	if err := <-ready; err != nil {
		w.stop()
		return nil, err
	}
	return w, nil
}

// stop ends the worker (closing stdin makes an idle one exit) and waits.
func (w *workerProc) stop() {
	if w == nil || w.cmd == nil {
		return
	}
	w.stdin.Close()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
	w.cmd = nil
}

// wait waits for a draining worker to exit on its own.
func (w *workerProc) wait(timeout time.Duration) error {
	select {
	case err := <-w.done:
		w.cmd = nil
		return err
	case <-time.After(timeout):
		w.stop()
		return fmt.Errorf("farm worker did not drain the batch within %s", timeout)
	}
}

// farmSetup is one coordinator + worker pair ready for a batch.
type farmSetup struct {
	srv    *serverProc
	worker *workerProc
	cache  string
	jobs   []jobqueue.Job
	params []bumdp.Params
}

func (s *farmSetup) stop() {
	s.worker.stop()
	s.srv.stop()
}

func setUpFarm(e env, dir string, traced bool) (*farmSetup, error) {
	s := &farmSetup{cache: dir}
	var err error
	if s.jobs, s.params, err = farmBatch(e.seed); err != nil {
		return nil, err
	}
	if s.srv, err = startServer(e, dir); err != nil {
		return nil, err
	}
	if s.worker, err = startWorker(e, s.srv.base, dir+".worker.json", traced); err != nil {
		s.srv.stop()
		return nil, err
	}
	return s, nil
}

func runFarm(e env, tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
	batches := farmBatches
	if tr != nil || e.compare {
		// The per-layer numbers come from one traced batch, and the
		// overhead from one untraced batch against it.
		batches = 1
	}
	var setups []float64
	var runs []farmRun
	for b := 0; b < batches; b++ {
		var s *farmSetup
		for i := 0; i < farmSetups; i++ {
			if s != nil {
				s.stop()
			}
			t0 := time.Now()
			var err error
			s, err = setUpFarm(e, filepath.Join(e.work, fmt.Sprintf("farm-%d-%d", b, i)), tr != nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		r, err := runFarmBatch(e, o, tr, s)
		s.stop()
		if err != nil {
			return nil, err
		}
		fmt.Printf("farm batch %d: %d jobs done in %.3f s\n", b, r.done, r.wall.Seconds())
		runs = append(runs, r)
	}
	// Each metric is the median over the batches.
	pick := func(f func(farmRun) float64) float64 {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["wall_s"] = metric{pick(func(r farmRun) float64 { return r.wall.Seconds() }), "s"}
	o.e2e["ops_per_s"] = metric{pick(func(r farmRun) float64 { return float64(r.done) / r.wall.Seconds() }), "1/s"}
	o.e2e["latency_p50_ms"] = metric{pick(func(r farmRun) float64 { return r.p50 }), "ms"}
	o.e2e["latency_p90_ms"] = metric{pick(func(r farmRun) float64 { return r.p90 }), "ms"}
	o.e2e["peak_rss_mb"] = metric{pick(func(r farmRun) float64 { return r.rssMB }), "MiB"}
	o.size = map[string]int{"jobs": farmJobs, "batches": batches, "workers": 1, "slots": farmSlots}
	if tr != nil {
		// The buserve hit path's timings move too much with the shared
		// host for a gate to hold (README.md), so serve is not one of
		// BENCHMARK.json's workloads; its layers, the same binary's HTTP
		// serving and store reads, are measured here.
		hit, err := runServe(e, tr)
		if err != nil {
			return nil, err
		}
		for k, v := range hit.layers {
			o.layers[k] = v
		}
		for k, v := range hit.size {
			o.size["serve_"+k] = v
		}
		o.attempted += hit.attempted
		o.failed += hit.failed
		o.checkErrs = append(o.checkErrs, hit.checkErrs...)
		o.spans = tr.all()
	}
	return o, nil
}

// farmRun is what one batch measured.
type farmRun struct {
	wall     time.Duration
	done     int
	p50, p90 float64
	rssMB    float64 // coordinator and worker
}

// runFarmBatch times one batch on a fresh coordinator and worker:
// enqueue the whole batch, then let the worker drain it. It counts the
// batch's operations and failed checks into o, and on a traced pass
// adds the per-layer metrics.
func runFarmBatch(e env, o *outcome, tr *tracer, s *farmSetup) (farmRun, error) {
	var r farmRun
	client := &farm.Client{Base: s.srv.base}
	accepted := make([]time.Time, len(s.jobs))
	start := time.Now()
	for i, job := range s.jobs {
		sp := tr.start("farm.enqueue", job.ID, nil)
		_, created, err := client.Enqueue(job)
		sp.end(nil)
		accepted[i] = time.Now()
		if err != nil {
			return r, fmt.Errorf("enqueue %s: %w", job.ID, err)
		}
		if !created {
			o.fail("job %s already existed on a fresh coordinator", job.ID)
		}
	}
	if _, err := io.WriteString(s.worker.stdin, "go\n"); err != nil {
		return r, err
	}
	if err := s.worker.wait(farmDeadline); err != nil {
		return r, err
	}

	var jobs []jobqueue.Job
	if err := getJSON(s.srv.base+"/jobs/list", &jobs); err != nil {
		return r, err
	}
	var qs jobqueue.Stats
	if err := getJSON(s.srv.base+"/jobs/statsz", &qs); err != nil {
		return r, err
	}
	rss, err := peakRSSMB(s.srv.pid)
	if err != nil {
		return r, err
	}
	var rep workerReport
	raw, err := os.ReadFile(s.worker.report)
	if err == nil {
		err = json.Unmarshal(raw, &rep)
	}
	if err != nil {
		return r, fmt.Errorf("reading the worker's report: %w", err)
	}
	s.srv.stop()

	byID := make(map[string]jobqueue.Job, len(jobs))
	var end time.Time
	for _, j := range jobs {
		byID[j.ID] = j
		if j.DoneAt.After(end) {
			end = j.DoneAt
		}
	}
	var lat, wait []time.Duration
	o.attempted += len(s.jobs)
	for i, job := range s.jobs {
		j, ok := byID[job.ID]
		if !ok || j.State != jobqueue.Done {
			o.failed++
			o.fail("job %s not done (state %q)", job.ID, j.State)
			continue
		}
		lat = append(lat, j.DoneAt.Sub(accepted[i]))
		wait = append(wait, j.StartedAt.Sub(j.EnqueuedAt))
	}
	if qs.Dead != 0 || qs.DeadLettered != 0 {
		o.fail("%d jobs dead-lettered", qs.DeadLettered)
	}
	if qs.VerifyRejects != 0 || rep.Rejected != 0 {
		o.fail("%d completions rejected by the validity predicate", qs.VerifyRejects)
	}
	if rep.Failed != 0 || rep.Lost != 0 {
		o.failed += int(rep.Failed)
		o.fail("the worker reported %d failed executions and %d lost leases", rep.Failed, rep.Lost)
	}
	r.wall, r.done, r.rssMB = end.Sub(start), len(lat), rss+rep.PeakRSSMB
	r.p50, r.p90 = latencyPercentiles(o, lat)

	// Checks after timing: every stored artifact is the bytes a local
	// solve produces.
	checkFarmArtifacts(o, tr, s)

	if tr != nil {
		for _, sp := range rep.Spans {
			sp.Start, sp.End = tr.at(time.Unix(0, sp.Start)), tr.at(time.Unix(0, sp.End))
			tr.add(sp)
		}
		var waitMs float64
		for _, d := range wait {
			waitMs += d.Seconds() * 1e3
		}
		o.layers["jobqueue.queue_wait_ms"] = metric{waitMs / float64(len(wait)), "ms"}
		o.layers["verify.rejects"] = metric{float64(qs.VerifyRejects), "count"}
		if err := replayQueue(e, o, tr, s.jobs); err != nil {
			return r, err
		}
		o.spans = tr.all()
		sum := summarize(o.spans)
		exec := sum["farm.execute"]
		o.layers["farm.enqueue_rtt_ms"] = metric{sum["farm.enqueue"].meanMs(), "ms"}
		o.layers["farm.lease_rtt_ms"] = metric{sum["farm.lease"].meanMs(), "ms"}
		o.layers["farm.complete_rtt_ms"] = metric{sum["farm.complete"].meanMs(), "ms"}
		o.layers["farm.execute_ms"] = metric{exec.meanMs(), "ms"}
		o.layers["farm.busy_share"] = metric{exec.total.Seconds() / (r.wall.Seconds() * farmSlots), "ratio"}
		o.layers["farm.empty_leases"] = metric{sum["farm.lease"].counts["empty"], "count"}
		check, local := sum["verify.check"], sum["farm.local_execute"]
		o.layers["verify.check_ms"] = metric{check.meanMs(), "ms"}
		o.layers["verify.cost_share"] = metric{check.total.Seconds() / local.total.Seconds(), "ratio"}
		o.layers["expstore.put_us"] = metric{sum["expstore.put"].meanUs(), "us"}
	}
	return r, nil
}

// checkFarmArtifacts compares every stored artifact with a local
// expstore.ComputeBUSolve of the same job. The traced pass also times
// the local solve, the validity predicate on the stored bytes and a
// write of them into a fresh on-disk store.
func checkFarmArtifacts(o *outcome, tr *tracer, s *farmSetup) {
	st, err := expstore.Open(expstore.Config{Dir: s.cache, MemEntries: -1})
	if err != nil {
		o.fail("opening the coordinator's store: %v", err)
		return
	}
	fresh, err := expstore.Open(expstore.Config{Dir: s.cache + ".put"})
	if err != nil {
		o.fail("opening a fresh store: %v", err)
		return
	}
	workers := farmSlots
	if tr != nil {
		workers = 1 // one at a time, so the spans time undisturbed calls
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.jobs); i += workers {
				job := s.jobs[i]
				if msg := checkFarmJob(tr, st, fresh, job, s.params[i]); msg != "" {
					mu.Lock()
					o.failed++
					o.fail("job %s: %s", job.ID, msg)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
}

func checkFarmJob(tr *tracer, st, fresh *expstore.Store, job jobqueue.Job, p bumdp.Params) string {
	stored, ok := st.Get(job.ID)
	if !ok {
		return "no stored artifact"
	}
	sp := tr.start("farm.local_execute", job.ID, nil)
	local, err := expstore.ComputeBUSolve(p, bumdp.SolveOptions{Parallelism: 1})
	sp.end(nil)
	if err != nil {
		return fmt.Sprintf("local solve: %v", err)
	}
	if !sameSolve(stored, local) {
		return "stored artifact differs from a local solve"
	}
	sp = tr.start("verify.check", job.ID, nil)
	err = verify.Artifact(job.Kind, job.ID, job.Spec, stored)
	sp.end(nil)
	if err != nil {
		return fmt.Sprintf("validity predicate: %v", err)
	}
	if tr != nil {
		sp = tr.start("expstore.put", job.ID, nil)
		err = fresh.Put(job.ID, stored)
		sp.end(nil)
		if err != nil {
			return fmt.Sprintf("store put: %v", err)
		}
	}
	return ""
}

// sameSolve reports whether two busolve artifacts are byte-identical
// once the two fields that record how a solve ran rather than what it
// found (wall time and sweep worker count) are zeroed, the same
// normalization the coordinator applies before comparing quorum votes.
func sameSolve(a, b []byte) bool {
	norm := func(blob []byte) []byte {
		var rec expstore.BUSolveRecord
		if json.Unmarshal(blob, &rec) != nil {
			return nil
		}
		rec.Stats.Duration, rec.Stats.Workers = 0, 0
		out, err := json.Marshal(rec)
		if err != nil {
			return nil
		}
		return out
	}
	na, nb := norm(a), norm(b)
	return na != nil && bytes.Equal(na, nb)
}

// replayQueue replays the batch's enqueue -> lease -> complete sequence
// through jobqueue.Queue with and without a journal. A fixed clock and
// seed make the journaled run write the same bytes every time.
func replayQueue(e env, o *outcome, tr *tracer, jobs []jobqueue.Job) error {
	for _, journaled := range []bool{false, true} {
		opts := jobqueue.Options{Now: fixedClock(), Seed: 1}
		name := "jobqueue.memory_op"
		if journaled {
			opts.Journal = filepath.Join(e.work, "replay-journal.json")
			name = "jobqueue.journal_op"
		}
		q, err := jobqueue.Open(opts)
		if err != nil {
			return err
		}
		var rewritten int64
		op := func(id string, fn func() error) error {
			sp := tr.start(name, id, nil)
			err := fn()
			sp.end(nil)
			if err == nil && journaled {
				fi, serr := os.Stat(opts.Journal)
				if serr != nil {
					return serr
				}
				rewritten += fi.Size()
			}
			return err
		}
		for _, job := range jobs {
			if err := op(job.ID, func() error { _, _, err := q.Enqueue(job); return err }); err != nil {
				return err
			}
		}
		for range jobs {
			var leased jobqueue.Job
			err := op("", func() error {
				var ok bool
				var err error
				leased, ok, err = q.Lease("perfbench/0", nil, time.Minute)
				if err == nil && !ok {
					err = fmt.Errorf("replay lease found nothing ready")
				}
				return err
			})
			if err != nil {
				return err
			}
			if err := op(leased.ID, func() error { _, err := q.Complete(leased.ID, leased.Lease); return err }); err != nil {
				return err
			}
		}
		if err := q.Close(); err != nil {
			return err
		}
		sum := summarize(tr.all())[name]
		if journaled {
			fi, err := os.Stat(opts.Journal)
			if err != nil {
				return err
			}
			o.layers["jobqueue.journal_bytes"] = metric{float64(fi.Size()), "B"}
			o.layers["jobqueue.journal_rewrite_bytes"] = metric{float64(rewritten), "B"}
			o.layers["jobqueue.journal_op_us"] = metric{sum.meanUs(), "us"}
		} else {
			o.layers["jobqueue.memory_op_us"] = metric{sum.meanUs(), "us"}
		}
	}
	return nil
}

// fixedClock is a deterministic clock that advances one millisecond
// per reading.
func fixedClock() func() time.Time {
	t := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

// workerReport is what the worker process hands back.
type workerReport struct {
	Failed, Lost, Rejected int64
	PeakRSSMB              float64
	// Spans use wall-clock nanoseconds; the parent shifts them onto its
	// tracer's clock.
	Spans []span
}

// farmWorkerMain is the farm worker process: a farm.Worker of farmSlots
// slots that starts draining when stdin says "go". When traced, its
// transport records every /jobs call, and the execute interval between
// a job's lease reply and its completion request, as spans.
func farmWorkerMain(args []string) error {
	fs := flag.NewFlagSet("farm-worker", flag.ContinueOnError)
	base := fs.String("coordinator", "", "coordinator base URL")
	report := fs.String("report", "", "where to write the worker report")
	traced := fs.Bool("traced", false, "record the worker's /jobs calls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &farm.Client{Base: *base}
	var rt *recordingTransport
	if *traced {
		rt = &recordingTransport{base: http.DefaultTransport, leasedAt: map[string]int64{}}
		client.HTTP = &http.Client{Transport: rt, Timeout: time.Minute}
	}
	w := &farm.Worker{
		Client:      client,
		Name:        "perfbench",
		Concurrency: farmSlots,
		TTL:         2 * time.Minute,
		Poll:        farmPoll,
		Drain:       true,
	}
	fmt.Println("ready")
	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil || line != "go\n" {
		return nil // the parent stopped us before a batch: nothing to report
	}
	ctx, cancel := context.WithTimeout(context.Background(), farmDeadline)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		return err
	}
	rep := workerReport{Rejected: w.Rejected()}
	_, _, rep.Failed, rep.Lost = w.Stats()
	if rt != nil {
		rep.Spans = rt.spans
	}
	if rep.PeakRSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(*report, blob, 0o644)
}

// recordingTransport times the worker's /jobs calls as spans.
type recordingTransport struct {
	base     http.RoundTripper
	mu       sync.Mutex
	spans    []span
	leasedAt map[string]int64 // job ID -> lease reply time
	ids      int64
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var reqBody []byte
	if req.Body != nil {
		var err error
		if reqBody, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(reqBody))
	}
	start := time.Now().UnixNano()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now().UnixNano()

	t.mu.Lock()
	defer t.mu.Unlock()
	rec := func(name, id string, start, end int64, counts map[string]float64) {
		t.ids++
		t.spans = append(t.spans, span{Name: name, Trace: id, ID: -t.ids, Start: start, End: end, Counts: counts})
	}
	switch req.URL.Path {
	case "/jobs/lease":
		var lr struct {
			OK  bool `json:"ok"`
			Job struct {
				ID string `json:"id"`
			} `json:"job"`
		}
		_ = json.Unmarshal(body, &lr)
		var counts map[string]float64
		if lr.OK {
			t.leasedAt[lr.Job.ID] = end
		} else {
			counts = map[string]float64{"empty": 1}
		}
		rec("farm.lease", lr.Job.ID, start, end, counts)
	case "/jobs/complete":
		var cr struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(reqBody, &cr)
		if at, ok := t.leasedAt[cr.ID]; ok {
			rec("farm.execute", cr.ID, at, start, nil)
		}
		rec("farm.complete", cr.ID, start, end, nil)
	default:
		rec("farm.control", req.URL.Path, start, end, nil)
	}
	return resp, nil
}
