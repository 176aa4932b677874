package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"masksim/internal/experiments"
	"masksim/internal/maskd"
	"masksim/internal/metrics"
)

const (
	// campaignCycles is the per-simulation budget of every campaign job.
	campaignCycles = 500
	// campaignWorkers is the server's execution-slot pool.
	campaignWorkers = 2
	// clockBlock is the number of host-clock probes around each campaign
	// phase (see hostclock.go).
	clockBlock = 7
	// tenants is the number of closed-loop clients.
	tenants = 2
	// warmJobs is the number of warm resubmissions per campaign: enough for
	// a hundred round trips beyond p90 in every worker and about a CPU-second
	// of warm-phase profile samples.
	warmJobs = 1000
	// serverStarts is the number of timed server set-ups per worker; the
	// last one serves the campaign. One takes about a millisecond.
	serverStarts = 15
	// jobTimeout bounds one job's round trip, so a wedged server fails the
	// job instead of hanging the run.
	jobTimeout = time.Minute
)

// server is one in-process maskd on a loopback port with a fresh store.
type server struct {
	srv    *maskd.Server
	hs     *http.Server
	base   string
	store  string
	served chan error
}

// startServer starts a server and waits until /v1/healthz answers; the
// returned duration is that set-up time.
func startServer(store string, hc *http.Client) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := maskd.NewServer(maskd.Config{CacheDir: store, Workers: campaignWorkers})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), store: store, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	for {
		resp, err := hc.Get(s.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("maskd did not answer /v1/healthz within 10s: %v", err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// stop shuts the server down, waits for its goroutines and removes its store.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Drain(ctx), os.RemoveAll(s.store))
}

// jobOut is one job's round trip as the client saw it.
type jobOut struct {
	exp         string
	submit, rtt time.Duration
	st          *maskd.JobStatus
	err         error
}

// drive runs the closed loop: each tenant submits the next experiment only
// after its previous job reached a terminal state, until next reports none.
func drive(t *tracer, base string, hc *http.Client, next func() (string, bool)) []jobOut {
	var mu sync.Mutex
	var outs []jobOut
	var wg sync.WaitGroup
	for lane := 1; lane <= tenants; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &maskd.Client{Base: base, APIKey: fmt.Sprintf("tenant-%d", lane), HTTP: hc}
			for {
				mu.Lock()
				exp, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				o := jobOut{exp: exp}
				id := t.begin("job "+exp, 0, lane)
				t0 := time.Now()
				o.submit = t.timed("maskd.Submit", id, lane, func() {
					o.st, o.err = cl.Submit(maskd.SubmitRequest{Experiments: []string{exp}, Cycles: campaignCycles})
				})
				if o.err == nil {
					ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
					t.timed("maskd.Wait", id, lane, func() { o.st, o.err = cl.Wait(ctx, o.st.ID) })
					cancel()
				}
				o.rtt = time.Since(t0)
				t.end(id)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// jobProblem checks one finished job: done, with one done cell. A warm job
// (cold != nil) must also execute nothing, report a cache hit whenever it
// asked the shared cache for anything, and render the cold job's tables.
// Two kinds of warm cell ask nothing: storage runs no simulation, and
// fig11-fig15 are served by the experiments package's in-process memo of
// their shared matrix. The server reports those cells with cacheHit=false
// by definition (a hit needs at least one request).
func jobProblem(o jobOut, cold map[string]string) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.st.State != maskd.JobDone || len(o.st.Cells) != 1:
		return fmt.Sprintf("job %s ended %s with %d cells", o.st.ID, o.st.State, len(o.st.Cells))
	}
	c := o.st.Cells[0]
	if c.State != maskd.CellDone {
		return fmt.Sprintf("cell %s: %s %s", c.Name, c.State, c.Error)
	}
	if cold == nil {
		return ""
	}
	switch {
	case c.Executed != 0 || (c.Requests > 0 && !c.CacheHit):
		return fmt.Sprintf("warm cell %s: cacheHit=%v executed=%d requests=%d", c.Name, c.CacheHit, c.Executed, c.Requests)
	case strings.Join(c.Tables, "\n") != cold[o.exp]:
		return fmt.Sprintf("warm cell %s rendered other tables than the cold run", c.Name)
	}
	return ""
}

// campaignOut is what one campaign produced: a cold pass over every
// experiment, then warmJobs resubmissions against the warm server.
type campaignOut struct {
	cold    float64 // reference seconds (see hostclock.go)
	rawCold time.Duration
	stats   metrics.RunStats // summed over the cold jobs
	hitFrac float64          // shared cache, cold phase: requests served without executing
	warm    []jobOut
	// warmBefore and warmAfter are the host-clock probes around the warm
	// phase.
	warmBefore, warmAfter time.Duration

	coldTally, warmTally layerTally // CPU profile per phase (traced workers)
}

// campaign runs one campaign on s and checks every job: the cold tables and
// executed simulations against the values recorded for this benchmark, and
// each warm job against the cold one. The experiments package memoizes the
// fig11 matrix for the life of the process, so a worker runs one campaign.
func (r *run) campaign(hc *http.Client, s *server, order []string) (*campaignOut, error) {
	out := &campaignOut{}
	t := r.spans
	prof := &profiler{dir: r.work, prefix: fmt.Sprintf("cpu-campaign-%d-w%d", r.seed, r.worker)}
	if r.traced {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	i := 0
	before := r.clock.probeBlock(clockBlock)
	t0 := time.Now()
	jobs := drive(t, s.base, hc, func() (string, bool) {
		i++
		return order[(i-1)%len(order)], i <= len(order)
	})
	out.rawCold = time.Since(t0)
	after := r.clock.probeBlock(clockBlock)
	out.cold = scale(out.rawCold, before, after)
	if r.traced {
		if err := prof.stop(&out.coldTally); err != nil {
			return nil, err
		}
	}
	tables := map[string]string{}
	for _, o := range jobs {
		problem := jobProblem(o, nil)
		r.rep.op("cold job "+o.exp, problem)
		if problem == "" {
			out.stats.Merge(o.st.Stats)
			tables[o.exp] = strings.Join(o.st.Cells[0].Tables, "\n")
		}
	}
	h := sha256.New()
	for _, id := range experiments.IDs() {
		fmt.Fprintf(h, "%s\n%s\n", id, tables[id])
	}
	digest := hex.EncodeToString(h.Sum(nil)[:6])
	problem := ""
	if digest != campaignDigest {
		problem = fmt.Sprintf("tables digest %s, recorded %s", digest, campaignDigest)
	}
	r.rep.op("campaign tables", problem)
	problem = ""
	if out.stats.Attempted != campaignSimsExecuted {
		problem = fmt.Sprintf("%d sims executed, recorded %d", out.stats.Attempted, campaignSimsExecuted)
	}
	r.rep.op("campaign sims executed", problem)
	r.rep.notef("cold campaign: %d jobs, %d sims executed, %d cycles simulated, tables digest %s",
		len(order), out.stats.Attempted, out.stats.CyclesSimulated, digest)
	st, err := (&maskd.Client{Base: s.base, HTTP: hc}).Stats()
	if err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if st.Cache.Requests > 0 {
		out.hitFrac = 1 - float64(st.Cache.Misses)/float64(st.Cache.Requests)
	}

	if r.traced {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	i = 0
	before = r.clock.probeBlock(clockBlock)
	out.warm = drive(t, s.base, hc, func() (string, bool) {
		i++
		return order[(i-1)%len(order)], i <= warmJobs
	})
	out.warmBefore, out.warmAfter = before, r.clock.probeBlock(clockBlock)
	if r.traced {
		if err := prof.stop(&out.warmTally); err != nil {
			return nil, err
		}
	}
	for _, o := range out.warm {
		r.rep.op("warm job "+o.exp, jobProblem(o, tables))
	}
	return out, nil
}

// runCampaign is one worker's share of the campaign workload: serverStarts
// timed server set-ups, then one campaign on a fresh server and store, its
// job order shuffled from the seed and the worker's index.
func runCampaign(r *run) error {
	hc := &http.Client{Timeout: jobTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: tenants + 1}}
	defer hc.CloseIdleConnections()
	// Server start-up is file system and network work: it is scaled by the
	// set-up kernel (see hostclock.go), probed around each start.
	var s *server
	before := r.clock.setupProbe()
	for k := 0; k < serverStarts; k++ {
		var d time.Duration
		var err error
		if s, d, err = startServer(filepath.Join(r.work, fmt.Sprintf("store-w%d", r.worker)), hc); err != nil {
			return err
		}
		after := r.clock.setupProbe()
		r.rep.sample("setup_s", scaleBy(d, refSetupNominal, before, after))
		r.rep.sample("raw.setup_s", d.Seconds())
		before = after
		if k < serverStarts-1 {
			if err := s.stop(); err != nil {
				return err
			}
		}
	}
	order := experiments.IDs()
	rng := rand.New(rand.NewSource(int64(mix64(uint64(r.seed)<<16+uint64(r.worker)) >> 1)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	c, err := r.campaign(hc, s, order)
	if err = errors.Join(err, s.stop()); err != nil {
		return err
	}

	r.rep.sample("campaign_s", c.cold)
	r.rep.sample("raw.campaign_s", c.rawCold.Seconds())
	r.rep.sample("sim_cycles_per_s", float64(c.stats.CyclesSimulated)/c.cold)
	r.rep.sample("raw.sim_cycles_per_s", float64(c.stats.CyclesSimulated)/c.rawCold.Seconds())
	var submits []float64
	for _, o := range c.warm {
		r.rep.RTTs = append(r.rep.RTTs, scale(o.rtt, c.warmBefore, c.warmAfter))
		r.rep.sample("raw.job_rtt_s", o.rtt.Seconds())
		submits = append(submits, 1e3*scale(o.submit, c.warmBefore, c.warmAfter))
	}
	if err := r.rep.setPeakRSS(); err != nil {
		return err
	}

	// Per-layer metrics. Simulations run inside the server, where the
	// benchmark can neither time sim.New and Run nor read their Results.
	r.rep.set("sim.new_ms", 0, "ms")
	r.rep.set("sim.run_us_per_ticked_cycle", 0, "us")
	for _, n := range []string{"gpu.insts", "tlb.l2_accesses", "ptw.walks", "ptw.faults", "cache.l2_accesses", "dram.data_services", "dram.trans_services"} {
		r.rep.set(n, 0, "count")
	}
	r.rep.set("tlb.l1_miss_rate", 0, "frac")
	r.rep.set("workload.ingest_mb_per_s", 0, "MB/s")
	r.rep.set("engine.ticked_frac", float64(c.stats.CyclesTicked)/float64(max(c.stats.CyclesSimulated, 1)), "frac")
	r.rep.set("experiments.sims_executed", float64(c.stats.Attempted), "count")
	r.rep.set("simcache.hit_frac", c.hitFrac, "frac")
	r.rep.set("maskd.submit_ms_p50", median(submits), "ms")
	if r.traced {
		// The warm phase is where maskd and net/http spend their time (the
		// cold phase is simulation, measured by the sim workloads), so its
		// profile gives the host shares; the notes show both phases.
		c.warmTally.setShares(r.rep)
		c.warmTally.check(r.rep, "warm jobs")
		c.coldTally.check(r.rep, "cold campaign")
	}
	return nil
}
