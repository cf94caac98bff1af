package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/expstore"
)

const (
	// serveKeys is how many distinct /solve keys set-up solves: a
	// working set well beyond the store's 512-entry memory LRU, so part
	// of the hits come from disk.
	serveKeys = 2000
	// serveClients is the closed loop's client count, one keep-alive
	// connection each.
	serveClients = 2
	// serveZipf is the skew of the key popularity law.
	serveZipf = 1.1
	// serveWarm is how many requests each client sends before timing.
	serveWarm = 2000
	// serveReplay is how many keys of each client's stream the traced
	// pass replays through expstore.Store.Get.
	serveReplay = 20000
)

// keyStream is one client's seeded sequence of key indices.
type keyStream struct {
	perm []int
	z    *rand.Zipf
}

// newKeyStream draws key indices in [0, keys) with a Zipf law whose
// rank order is a seeded permutation, so the popular keys differ per
// seed; stream separates the clients' sequences.
func newKeyStream(seed int64, stream, keys int) *keyStream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	return &keyStream{perm: rng.Perm(keys), z: rand.NewZipf(rng, serveZipf, 1, uint64(keys-1))}
}

func (k *keyStream) next() int { return k.perm[k.z.Uint64()] }

// serveKey is one /solve query of the working set.
type serveKey struct {
	params bumdp.Params
	query  string // path and query of the request
	blob   []byte // the set-up reply every timed reply must equal
}

// serveWorkingSet lays the seed's setting-1 compliant keys on a fine
// alpha grid.
func serveWorkingSet(seed int64) []serveKey {
	var keys []serveKey
	for _, c := range alphaGrid(seed, 0.01, 0.001, serveKeys) {
		beta, gamma := c.Ratio.Split(c.Alpha)
		q := url.Values{}
		q.Set("alpha", strconv.FormatFloat(c.Alpha, 'g', -1, 64))
		q.Set("ratio", c.Ratio.Name)
		q.Set("model", "compliant")
		q.Set("setting", "1")
		keys = append(keys, serveKey{
			params: bumdp.Params{Alpha: c.Alpha, Beta: beta, Gamma: gamma, Setting: bumdp.Setting1, Model: bumdp.Compliant},
			query:  "/solve?" + q.Encode(),
		})
	}
	return keys
}

// forClients runs fn once per client concurrently and returns the
// first error.
func forClients(fn func(c int) error) error {
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runServe(e env, tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
	cacheDir := filepath.Join(e.work, fmt.Sprintf("serve-cache-%t", tr != nil))

	// Set-up: a fresh server solves every key of the working set once
	// (its reply kept as the bytes every timed reply must equal). The
	// serving process is then started anew on the filled cache
	// directory, as a server over an existing store would be, and
	// warmed up.
	setupStart := time.Now()
	keys, err := presolve(e, cacheDir)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e, cacheDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	conns := make([]*conn, serveClients)
	defer func() {
		for _, k := range conns {
			if k != nil {
				k.Close()
			}
		}
	}()
	err = forClients(func(c int) error {
		var err error
		if conns[c], err = dial(srv.base); err != nil {
			return err
		}
		ks := newKeyStream(e.seed, serveClients+c, len(keys))
		var buf bytes.Buffer
		for i := 0; i < serveWarm; i++ {
			if _, _, err := conns[c].get(keys[ks.next()].query, &buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)
	var before statsz
	if err := getJSON(srv.base+"/statsz", &before); err != nil {
		return nil, err
	}

	// Timed phase: a closed loop of keep-alive clients for e.seconds,
	// each on its own connection.
	lats := make([][]time.Duration, serveClients)
	bad := make([][]string, serveClients)
	budget := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	_ = forClients(func(c int) error {
		ks := newKeyStream(e.seed, c, len(keys))
		var buf bytes.Buffer
		lat := make([]time.Duration, 0, 1<<18)
		for i := 0; time.Since(start) < budget; i++ {
			k := &keys[ks.next()]
			sp := tr.start("buserve.request", fmt.Sprintf("c%d-%d", c, i), nil)
			t0 := time.Now()
			body, cache, err := conns[c].get(k.query, &buf)
			lat = append(lat, time.Since(t0))
			sp.end(nil)
			switch {
			case err != nil:
				bad[c] = append(bad[c], fmt.Sprintf("%s: %v", k.query, err))
			case cache != "hit":
				bad[c] = append(bad[c], fmt.Sprintf("%s: X-Cache %q", k.query, cache))
			case !bytes.Equal(body, k.blob):
				bad[c] = append(bad[c], fmt.Sprintf("%s: reply differs from the set-up reply", k.query))
			}
		}
		lats[c] = lat
		return nil
	})
	wall := time.Since(start)

	var after statsz
	if err := getJSON(srv.base+"/statsz", &after); err != nil {
		return nil, err
	}
	if err := assertNoMisses(before, after); err != nil {
		o.fail("%v", err)
	}
	rss, err := peakRSSMB(srv.pid)
	if err != nil {
		return nil, err
	}
	var all []time.Duration
	for c := range lats {
		all = append(all, lats[c]...)
		o.failed += len(bad[c])
		for i, msg := range bad[c] {
			if i < 5 {
				o.fail("client %d: %s", c, msg)
			}
		}
	}
	o.attempted = len(all)
	o.e2e["setup_s"] = metric{setup.Seconds(), "s"}
	o.e2e["wall_s"] = metric{wall.Seconds(), "s"}
	o.e2e["ops_per_s"] = metric{float64(len(all)) / wall.Seconds(), "1/s"}
	o.e2e["peak_rss_mb"] = metric{rss, "MiB"}
	latencyMetrics(o, all)
	o.size = map[string]int{"keys": len(keys), "requests": len(all), "clients": serveClients}

	if tr != nil {
		srvSolve := after.Endpoints[solveEndpoint].Latency
		o.layers["buserve.server_p50_ms"] = metric{srvSolve.P50ms, "ms"}
		o.layers["buserve.server_p99_ms"] = metric{srvSolve.P99ms, "ms"}
		// The tail percentile the request count supports (p99: at least
		// minTail samples beyond it) is reported here, not end to end:
		// on a shared 2-core host it moves too much from run to run for
		// any bound a gate could hold it to.
		ms := sortedMs(all)
		p99 := percentile(ms, 99)
		if !tailOK(len(ms), 99) {
			o.fail("%d requests leave fewer than %d beyond p99", len(ms), minTail)
		}
		o.layers["buserve.client_p99_ms"] = metric{p99, "ms"}
		o.layers["buserve.client_gap_p99_ms"] = metric{p99 - srvSolve.P99ms, "ms"}
		if err := replayStoreGets(e, o, tr, keys, cacheDir); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// presolve starts a server on an empty cache directory, solves every
// key of the seed's working set through /solve, keeping each reply, and
// stops the server.
func presolve(e env, cacheDir string) ([]serveKey, error) {
	srv, err := startServer(e, cacheDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	keys := serveWorkingSet(e.seed)
	err = forClients(func(c int) error {
		k, err := dial(srv.base)
		if err != nil {
			return err
		}
		defer k.Close()
		var buf bytes.Buffer
		for i := c; i < len(keys); i += serveClients {
			body, cache, err := k.get(keys[i].query, &buf)
			if err != nil {
				return fmt.Errorf("solving %s: %w", keys[i].query, err)
			}
			if cache != "miss" {
				return fmt.Errorf("set-up key %s was already cached", keys[i].query)
			}
			keys[i].blob = bytes.Clone(body)
		}
		return nil
	})
	return keys, err
}

// replayStoreGets replays the warm-up and then the first serveReplay
// timed keys of each client, interleaved, through the store layer on a
// copy of the server's cache directory, starting from an empty memory
// LRU as the serving process did. Each timed key gets a span for key
// derivation and one for the store lookup, named by the layer that
// answered (read from the store's counters around the call). Being
// single-threaded, the replay repeats exactly at one seed, unlike the
// server's counters, which depend on how the clients interleave.
func replayStoreGets(e env, o *outcome, tr *tracer, keys []serveKey, cacheDir string) error {
	dir := filepath.Join(e.work, "serve-replay")
	if err := copyBlobs(cacheDir, dir); err != nil {
		return err
	}
	st, err := expstore.Open(expstore.Config{Dir: dir})
	if err != nil {
		return err
	}
	var opts bumdp.SolveOptions
	for c := 0; c < serveClients; c++ {
		ks := newKeyStream(e.seed, serveClients+c, len(keys))
		for i := 0; i < serveWarm; i++ {
			key, err := expstore.BUSolveKey(keys[ks.next()].params, opts)
			if err != nil {
				return err
			}
			if _, err := storeLookup(st, key); err != nil {
				return err
			}
		}
	}
	warm := st.Stats()
	streams := make([]*keyStream, serveClients)
	for c := range streams {
		streams[c] = newKeyStream(e.seed, c, len(keys))
	}
	for i := 0; i < serveReplay; i++ {
		for c, ks := range streams {
			k := &keys[ks.next()]
			trace := fmt.Sprintf("replay-c%d-%d", c, i)
			sp := tr.start("expstore.key", trace, nil)
			key, err := expstore.BUSolveKey(k.params, opts)
			sp.end(nil)
			if err != nil {
				return err
			}
			disk0 := st.Stats().DiskHits
			sp = tr.start("expstore.get", trace, nil)
			blob, err := storeLookup(st, key)
			name := "expstore.get_mem"
			if st.Stats().DiskHits > disk0 {
				name = "expstore.get_disk"
			}
			sp.endAs(name, nil)
			if err != nil {
				return err
			}
			if !bytes.Equal(blob, bytes.TrimSuffix(k.blob, []byte("\n"))) {
				o.fail("replayed lookup of %s does not return the served bytes", key)
			}
		}
	}
	sum := summarize(tr.all())
	end := st.Stats()
	lookups := float64(end.Hits + end.Misses - warm.Hits - warm.Misses)
	o.layers["expstore.mem_hit_share"] = metric{float64(end.MemHits-warm.MemHits) / lookups, "ratio"}
	o.layers["expstore.disk_hit_share"] = metric{float64(end.DiskHits-warm.DiskHits) / lookups, "ratio"}
	o.layers["expstore.evictions"] = metric{float64(end.Evictions - warm.Evictions), "count"}
	o.layers["expstore.mem_get_us"] = metric{sum["expstore.get_mem"].meanUs(), "us"}
	o.layers["expstore.disk_get_us"] = metric{sum["expstore.get_disk"].meanUs(), "us"}
	o.layers["expstore.key_us"] = metric{sum["expstore.key"].meanUs(), "us"}
	o.spans = tr.all()
	return nil
}

// storeLookup answers key the way the server's /solve does, through
// Store.GetOrCompute, whose hit counters split memory from disk; every
// key was solved in set-up, so a compute is an error.
func storeLookup(st *expstore.Store, key string) ([]byte, error) {
	blob, _, err := st.GetOrCompute(key, func() ([]byte, error) {
		return nil, fmt.Errorf("replayed key %s is not in the store", key)
	})
	return blob, err
}

// copyBlobs copies the store's artifact files (not the queue journal or
// temporary files) into dst.
func copyBlobs(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		if !ent.Type().IsRegular() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, "jobqueue") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
