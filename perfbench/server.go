package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is a running buserve process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	pid  string
	log  *os.File
	done chan error
}

// startServer launches buserve on cacheDir and waits until it answers
// /healthz. -par 1 keeps each miss-path solve on one sweep thread, since
// the clients make two solve at once on two cores.
func startServer(e env, cacheDir string) (*serverProc, error) {
	portFile := cacheDir + ".port"
	logFile, err := os.Create(cacheDir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, "buserve"),
		"-addr", "127.0.0.1:0", "-cache-dir", cacheDir, "-portfile", portFile, "-log-level", "warn", "-par", "1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting buserve: %w", err)
	}
	s := &serverProc{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), log: logFile, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(raw), "\n") {
			s.base = "http://" + strings.TrimSpace(string(raw))
			if resp, err := http.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("buserve exited during start-up: %v (log %s)", err, logFile.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("buserve did not become ready within 30s")
		}
	}
}

// stop shuts the server down gracefully and waits for it to exit,
// killing it if it does not within 20 seconds.
func (s *serverProc) stop() {
	if s == nil || s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
	s.cmd = nil
}

// getJSON fetches a JSON document from the server.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statsz is the part of buserve's /statsz document the benchmark reads.
type statsz struct {
	Store struct {
		Misses int64 `json:"misses"`
		Shared int64 `json:"shared"`
	} `json:"store"`
	Endpoints map[string]endpointStats `json:"endpoints"`
}

// endpointStats is one endpoint's /statsz entry.
type endpointStats struct {
	Errors  int64         `json:"errors"`
	Misses  int64         `json:"misses"`
	Latency serverLatency `json:"latency"`
}

// serverLatency is an endpoint's server-side latency quantiles.
type serverLatency struct {
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

// solveEndpoint is buserve's /statsz name for the /solve route.
const solveEndpoint = "GET /solve"

// assertNoMisses checks that nothing between two /statsz snapshots was
// solved: every request of the timed phase must be a store hit, or the
// phase measured the solver instead of the hit path.
func assertNoMisses(before, after statsz) error {
	var errs []string
	if d := after.Store.Misses - before.Store.Misses; d != 0 {
		errs = append(errs, fmt.Sprintf("%d store misses", d))
	}
	if d := after.Store.Shared - before.Store.Shared; d != 0 {
		errs = append(errs, fmt.Sprintf("%d requests joined an in-flight solve", d))
	}
	b, a := before.Endpoints[solveEndpoint], after.Endpoints[solveEndpoint]
	if d := a.Misses - b.Misses; d != 0 {
		errs = append(errs, fmt.Sprintf("%d /solve misses", d))
	}
	if d := a.Errors - b.Errors; d != 0 {
		errs = append(errs, fmt.Sprintf("%d /solve errors", d))
	}
	if len(errs) > 0 {
		return fmt.Errorf("timed phase was not all hits: %s", strings.Join(errs, ", "))
	}
	return nil
}
