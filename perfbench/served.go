package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"plurality"
	"plurality/internal/server"
)

const (
	// servedCheckpointEvery is the daemon's segment length: every async
	// miss (MaxTime servedMaxTime) crosses four segments, and round-based
	// misses that run to their horizon cross servedMaxSteps/4.
	servedCheckpointEvery = 4
	servedMaxTime         = 16
	servedMaxSteps        = 48
	// servedStarts is how many times the daemon is started and stopped
	// before the rounds, each of which starts it once more; the
	// median start-to-ready time is the workload's set-up time.
	servedStarts = 5
	// tracedWarmBlocks × tracedWarmBlock hit requests make the traced
	// run's warm phase: a fixed count, so the daemon's counters repeat
	// exactly, split into alternating untraced and traced blocks of 20
	// passes over the 12 specs.
	tracedWarmBlocks = 8
	tracedWarmBlock  = 240
	// warmPasses is how many seeded permutations of the specs one warm
	// window re-requests (one to two seconds of hits). Every window has
	// the same mix: a random-regular hit costs tens of times any other, so
	// windows of independently drawn specs varied by ±10% in mix alone.
	warmPasses = 40
	// servedConns is how many connections the client keeps busy. With one,
	// the daemon runs one request at a time and the host's second CPU is
	// left to the client, the garbage collector and the rest of the
	// machine: over six interleaved pairs of runs the hit rate spread 11%
	// between runs on one connection and 24% on two.
	servedConns = 1
)

// servedRequest is one POST /v1/runs body with its expected reply.
type servedRequest struct {
	body   []byte
	req    server.RunRequest
	want   []byte // JSON of the in-process plurality.Run of the same spec
	events uint64 // what the daemon adds to events_simulated for the spec
}

// servedSides sets the served specs' sizes: N is the square of these
// sides, so every size lies in 10⁴–5·10⁴.
var servedSides = map[string]int{"leader": 150, "decentralized": 140, "sync": 200, "3-majority": 180}

// servedSpecs generates the workload's distinct small specs: each of the
// four protocols on each of the three topologies. N is the square of the
// protocol's side (so every topology accepts it) and the same for every
// seed, so seeds change the runs, not their size; the run seeds are
// seeded, so every spec is distinct.
func servedSpecs(seed uint64, sides map[string]int) []server.RunRequest {
	r := rand.New(rand.NewPCG(seed, derive(seed, "served-runs")))
	var out []server.RunRequest
	for _, proto := range []string{"decentralized", "leader", "3-majority", "sync"} {
		for _, kind := range []string{plurality.TopologyComplete, plurality.TopologyTorus, plurality.TopologyRandomRegular} {
			side := sides[proto]
			spec := plurality.Spec{N: side * side, K: 4, Alpha: 2, Seed: r.Uint64(),
				Topology: plurality.TopologySpec{Kind: kind}}
			if proto == "leader" || proto == "decentralized" {
				spec.MaxTime = servedMaxTime
			} else {
				spec.MaxSteps = servedMaxSteps
			}
			out = append(out, server.RunRequest{Protocol: proto, Spec: spec})
		}
	}
	return out
}

// referenceBodies runs every request in process (on workers goroutines),
// checks each Result and stores its JSON as the expected reply body.
func referenceBodies(ctx context.Context, tr *tracer, reqs []server.RunRequest, workers int) ([]servedRequest, error) {
	out := make([]servedRequest, len(reqs))
	errs := make([]error, len(reqs))
	root := tr.begin("reference", "", -1)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i].req = reqs[i]
				out[i].body, errs[i] = json.Marshal(reqs[i])
				if errs[i] != nil {
					continue
				}
				info, err := plurality.Info(reqs[i].Protocol)
				if err != nil {
					errs[i] = err
					continue
				}
				s, err := timedRun(ctx, tr, root, reqs[i].Protocol, reqs[i].Spec)
				if err == nil {
					err = checkResult(s.res, reqs[i].Spec, info.Async)
				}
				if err == nil {
					out[i].want, err = json.Marshal(s.res)
					out[i].events = resultEvents(s.res, reqs[i].Spec.N)
					fmt.Printf("# reference %s %s N=%d: wall_s=%.4f duration=%g timed_out=%t\n", reqs[i].Protocol,
						reqs[i].Spec.Topology.Kind, reqs[i].Spec.N, s.wall.Seconds(), s.res.Duration, s.res.TimedOut)
				}
				errs[i] = err
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	tr.finish(root)
	return out, errors.Join(errs...)
}

// resultEvents is what pluralityd counts in events_simulated for a
// computed Result: its events, or node updates (rounds × N) for a
// round-based run.
func resultEvents(res *plurality.Result, n int) uint64 {
	if ev, ok := res.Stats["events"]; ok {
		return uint64(ev)
	}
	return uint64(res.Duration) * uint64(n)
}

// daemon is one running pluralityd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
}

// startDaemon launches pluralityd on a free loopback port with a fresh
// store and waits until /healthz answers; it returns the start-to-ready
// time.
func startDaemon(ctx context.Context, bin, store string, client *http.Client) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-store", store,
		"-checkpoint-every", strconv.Itoa(servedCheckpointEvery))
	d.cmd.Stderr = os.Stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting pluralityd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("pluralityd exited before it was ready: %v", err)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("pluralityd not ready after 30s")
		}
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10s) and waits
// for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) stats(client *http.Client) (server.Stats, error) {
	var st server.Stats
	resp, err := client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// post sends request r and checks the reply: 200, the expected cache path
// and a body byte-equal to the in-process Result's JSON.
func (d *daemon) post(client *http.Client, r *servedRequest, wantCache string) (time.Duration, error) {
	start := time.Now()
	resp, err := client.Post(d.base+"/v1/runs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, fmt.Errorf("POST /v1/runs: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	switch {
	case err != nil:
		return lat, fmt.Errorf("reading reply: %w", err)
	case resp.StatusCode != http.StatusOK:
		return lat, fmt.Errorf("%s N=%d: status %d: %s", r.req.Protocol, r.req.Spec.N, resp.StatusCode, strings.TrimSpace(string(body)))
	case resp.Header.Get("X-Plurality-Cache") != wantCache:
		return lat, fmt.Errorf("%s N=%d: served by %q, want %q", r.req.Protocol, r.req.Spec.N, resp.Header.Get("X-Plurality-Cache"), wantCache)
	case !bytes.Equal(body, r.want):
		return lat, fmt.Errorf("%s N=%d: %s reply differs from the in-process Result", r.req.Protocol, r.req.Spec.N, wantCache)
	}
	return lat, nil
}

// closedLoop sends the requests order yields on conns connections, each
// sending its next request only after the previous reply, until order
// returns false, and returns each successful request's latency in ms,
// indexed like order's values. Every request becomes a span under parent
// when tr is set.
func closedLoop(d *daemon, client *http.Client, reqs []servedRequest, conns int, wantCache string,
	tr *tracer, parent int, order func() (int, bool), o *outcome) []reqLatency {
	var mu sync.Mutex
	var lats []reqLatency
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i, ok := order()
				mu.Unlock()
				if !ok {
					return
				}
				t0 := tr.now()
				lat, err := d.post(client, &reqs[i], wantCache)
				if tr != nil {
					tr.add("request", wantCache, parent, t0, tr.now())
				}
				mu.Lock()
				o.op(err)
				if err == nil {
					lats = append(lats, reqLatency{i, lat.Seconds() * 1e3})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lats
}

// reqLatency is one request's index and latency in ms.
type reqLatency struct {
	req int
	ms  float64
}

func latencies(ls []reqLatency) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = l.ms
	}
	return out
}

// servedWorkload drives pluralityd over loopback HTTP with the specs of
// the given sides, in rounds on fresh daemons: each distinct spec once
// (every request a miss), then seeded re-requests of them (every request
// a hit). Replies must be byte-equal to the in-process Run of the same
// spec, and the re-requests must compute no job.
func servedWorkload(sides map[string]int) workloadFunc {
	return func(ctx context.Context, e *env) *outcome {
		return runServed(ctx, e, servedSpecs(e.seed, sides))
	}
}

func runServed(ctx context.Context, e *env, specs []server.RunRequest) *outcome {
	o := newOutcome()
	reqs, err := referenceBodies(ctx, e.tr, specs, e.workers)
	o.op(err)
	if err != nil {
		return o
	}
	// The timeout bounds a stuck daemon; a miss takes a few seconds at most.
	client := &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: servedConns, MaxConnsPerHost: servedConns}}
	defer client.CloseIdleConnections()

	var setups, hwms []float64
	starts := 0
	start := func() (*daemon, error) {
		d, ready, err := startDaemon(ctx, e.daemon, filepath.Join(e.scratch, fmt.Sprintf("store-%d", starts)), client)
		starts++
		o.op(err)
		if err == nil {
			setups = append(setups, ready.Seconds())
		}
		return d, err
	}
	// stop records the daemon's peak memory, then stops it.
	stop := func(d *daemon) {
		mb, err := peakMB(d.cmd.Process.Pid)
		if err != nil {
			o.op(fmt.Errorf("reading pluralityd peak memory: %w", err))
		} else {
			hwms = append(hwms, mb)
		}
		d.stop()
	}
	for i := 0; i < servedStarts; i++ {
		d, err := start()
		if err != nil {
			return o
		}
		d.stop()
	}

	// Rounds, each on a fresh daemon and store. The cold phase sends every
	// spec once, in generation order (slowest protocols first), so every
	// request is a miss; a warm window then re-requests the specs in
	// warmPasses seeded permutations, so every request is a hit. Rounds repeat
	// for the measuring time, so both phases sample all of it. A traced run
	// makes one round, whose warm phase is a fixed count in alternating
	// untraced and traced blocks, so the daemon's counters repeat exactly.
	var events uint64 // one cold round's, summed over the specs
	for _, r := range reqs {
		events += r.events
	}
	specLat := make([][]float64, len(reqs)) // per spec, one miss per round
	var missLat, roundMeans, hitLat, tracedHitLat, hitRates []float64
	var coldWall, warmWall time.Duration
	var last server.Stats
	r := rand.New(rand.NewPCG(e.seed, derive(e.seed, "served-order")))
	sent := 0
	var perm []int
	seq := func() (int, bool) {
		if sent%len(reqs) == 0 {
			perm = r.Perm(len(reqs))
		}
		sent++
		return perm[(sent-1)%len(reqs)], true
	}
	deadline := time.Now().Add(e.seconds)
	for round := 0; ; round++ {
		d, err := start()
		if err != nil {
			return o
		}
		before, err := d.stats(client)
		o.op(err)
		next := 0
		cold := e.tr.begin("phase", "cold", -1)
		t0 := time.Now()
		lats := closedLoop(d, client, reqs, servedConns, "miss", e.tr, cold, func() (int, bool) {
			if next == len(reqs) {
				return 0, false
			}
			next++
			return next - 1, true
		}, o)
		wall := time.Since(t0)
		e.tr.finish(cold)
		coldWall += wall
		for _, l := range lats {
			specLat[l.req] = append(specLat[l.req], l.ms)
		}
		missLat = append(missLat, latencies(lats)...)
		roundMeans = append(roundMeans, mean(latencies(lats)))
		afterCold, err := d.stats(client)
		o.op(err)
		coldOK := err == nil
		if coldOK {
			if c := afterCold.JobsComputed - before.JobsComputed; c != uint64(len(reqs)) {
				o.op(fmt.Errorf("cold round %d computed %d jobs, want %d", round, c, len(reqs)))
			}
			if c := afterCold.EventsSimulated - before.EventsSimulated; c != events {
				o.op(fmt.Errorf("cold round %d simulated %d events, want %d", round, c, events))
			}
		}

		first := sent
		t0 = time.Now()
		if e.trace {
			warm := e.tr.begin("phase", "warm", -1)
			for b := 0; b < tracedWarmBlocks; b++ {
				limit := sent + tracedWarmBlock
				bounded := func() (int, bool) {
					if sent == limit {
						return 0, false
					}
					return seq()
				}
				if b%2 == 0 {
					hitLat = append(hitLat, latencies(closedLoop(d, client, reqs, servedConns, "hit", nil, -1, bounded, o))...)
				} else {
					tracedHitLat = append(tracedHitLat, latencies(closedLoop(d, client, reqs, servedConns, "hit", e.tr, warm, bounded, o))...)
				}
			}
			e.tr.finish(warm)
		} else {
			lats := latencies(closedLoop(d, client, reqs, servedConns, "hit", nil, -1, func() (int, bool) {
				if sent == first+warmPasses*len(reqs) {
					return 0, false
				}
				return seq()
			}, o))
			hitLat = append(hitLat, lats...)
			hitRates = append(hitRates, float64(len(lats))/time.Since(t0).Seconds())
		}
		warmWall += time.Since(t0)
		last, err = d.stats(client)
		o.op(err)
		if err == nil && coldOK {
			if c := last.JobsComputed - afterCold.JobsComputed; c != 0 {
				o.op(fmt.Errorf("round %d warm window computed %d jobs, want 0", round, c))
			}
			if c := last.JobsCached - afterCold.JobsCached; c != uint64(sent-first) {
				o.op(fmt.Errorf("round %d warm window served %d jobs from cache, want %d", round, c, sent-first))
			}
		}
		stop(d)
		fmt.Printf("# round %d: cold wall_s=%.4f events=%d segments=%d; warm hits=%d\n", round, wall.Seconds(),
			afterCold.EventsSimulated-before.EventsSimulated, afterCold.SegmentsRun-before.SegmentsRun, sent-first)
		if e.trace || ctx.Err() != nil || time.Now().After(deadline) {
			break
		}
	}

	miss, hit := summarize(missLat), summarize(hitLat)
	fmt.Printf("# stats of the last daemon: %+v\n", last)
	fmt.Printf("# served_miss_p50_ms = %.4f ms (n=%d), mean %.4f ms\n", miss.Median, miss.N, mean(missLat))
	fmt.Printf("# served_miss_per_s = %.4f 1/s\n", float64(len(missLat))/coldWall.Seconds())
	fmt.Printf("# served_hit_p50_ms = %.4f ms (n=%d)\n", hit.Median, hit.N)
	if hit.TailP > 0 {
		fmt.Printf("# served_hit_p%g_ms = %.4f ms (n=%d, %d samples beyond)\n", hit.TailP, hit.Tail, hit.N, beyond(hit.TailP, hit.N))
	}
	fmt.Printf("# served_hit_per_s = %.4f 1/s, warm windows %s\n", float64(len(hitLat))/warmWall.Seconds(), quart(hitRates))
	if e.trace {
		o.traceOverhead(median(tracedHitLat), median(hitLat))
		o.set("server.jobs_computed", float64(last.JobsComputed), "count")
		o.set("server.jobs_cached", float64(last.JobsCached), "count")
		o.set("server.segments_run", float64(last.SegmentsRun), "count")
		o.set("server.cache_hit_ratio", float64(last.JobsCached)/float64(last.JobsCached+last.JobsComputed), "ratio")
		return o
	}
	if len(missLat) == 0 || len(hitLat) == 0 || len(hwms) == 0 {
		return o
	}
	// The served figures are best of the rounds: each spec's fastest miss
	// and the fastest warm window. The specs are small and cache-resident,
	// so their speed follows the host CPU's, which on a shared 2-CPU host
	// slowed every miss of whole runs by up to 40%; over the same nine
	// runs, the sum of per-spec medians spread 25% between runs and the sum
	// of per-spec minima 14%.
	var fastest float64 // seconds: one cold round's specs, each at its fastest
	for i, ls := range specLat {
		if len(ls) == 0 {
			o.op(fmt.Errorf("%s N=%d: no successful miss", reqs[i].req.Protocol, reqs[i].req.Spec.N))
			return o
		}
		best := slices.Min(ls)
		fastest += best / 1e3
		fmt.Printf("# miss latency %s %s N=%d: fastest %.4f ms, %s ms over %d rounds\n", reqs[i].req.Protocol,
			reqs[i].req.Spec.Topology.Kind, reqs[i].req.Spec.N, best, quart(ls), len(ls))
	}
	fmt.Printf("# rounds: %d, mean miss latency per round %s ms\n", len(roundMeans), quart(roundMeans))
	o.set("setup_s", median(setups), "s")
	o.set("run_s", fastest/float64(len(reqs)), "s")
	o.set("events_per_s", float64(events)/fastest, "1/s")
	o.set("jobs_per_s", slices.Max(hitRates), "1/s")
	o.set("peak_mem_mb", median(hwms), "MB")
	return o
}
