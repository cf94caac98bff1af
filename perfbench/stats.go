package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"buanalysis/internal/core"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailOK reports whether percentile p of n samples leaves at least
// minTail samples beyond it, the condition for reporting it.
func tailOK(n int, p float64) bool { return n-rank(n, p) >= minTail }

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// latencyMetrics reports the median and p90 of per-operation
// latencies (see latencyPercentiles).
func latencyMetrics(o *outcome, lat []time.Duration) {
	p50, p90 := latencyPercentiles(o, lat)
	o.e2e["latency_p50_ms"] = metric{p50, "ms"}
	o.e2e["latency_p90_ms"] = metric{p90, "ms"}
}

// latencyPercentiles returns the median and p90 of per-operation
// latencies in ms, after checking that the sample count leaves at
// least minTail samples beyond p90.
func latencyPercentiles(o *outcome, lat []time.Duration) (p50, p90 float64) {
	ms := sortedMs(lat)
	if !tailOK(len(ms), 90) {
		o.fail("%d latency samples leave fewer than %d beyond p90", len(ms), minTail)
	}
	return percentile(ms, 50), percentile(ms, 90)
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(lat []time.Duration) []float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = d.Seconds() * 1e3
	}
	sort.Float64s(ms)
	return ms
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// gridCell is one (alpha, Bob:Carol split) point of a generated grid.
type gridCell struct {
	Alpha float64
	Ratio core.Ratio
}

// alphaGrid lays out want distinct admissible (alpha, ratio) cells on a
// grid of alpha step step starting at lo, shifted by a seed-dependent
// fraction of a step. Alphas are rounded to 9 digits so they print and
// parse back exactly as the same float.
func alphaGrid(seed int64, lo, step float64, want int) []gridCell {
	off := float64(uint64(seed)%1000) / 1000 * step
	var out []gridCell
	for i := 0; len(out) < want; i++ {
		alpha := lo + off + float64(i)*step
		if alpha >= 1.0/3 {
			break
		}
		alpha, _ = strconv.ParseFloat(strconv.FormatFloat(alpha, 'f', 9, 64), 64)
		for _, r := range core.PaperRatios {
			if len(out) < want && r.Admissible(alpha) {
				out = append(out, gridCell{alpha, r})
			}
		}
	}
	return out
}

// refTolerance is how far a reproduced cell may sit from the reference.
const refTolerance = 1e-4

// checkAgainst compares a value with its reference at refTolerance.
func checkAgainst(got, want float64) error {
	if d := math.Abs(got - want); !(d <= refTolerance) {
		return fmt.Errorf("got %.7f, reference %.7f (off by %.2g > %g)", got, want, d, refTolerance)
	}
	return nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
