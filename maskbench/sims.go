package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"masksim/internal/streamio"
	"masksim/internal/workload"
	"masksim/sim"
)

const (
	// simCycles is the run length of the contended and translation cells.
	simCycles = 20_000
	// pagingCycles stays well short of the ~3M-cycle point where the paging
	// pair turns into a ticked walk storm (5M cycles: 35% of cycles ticked).
	pagingCycles = 2_000_000
	// pagingRuns is the number of paging cells per pass, each with its own
	// seed derived from the workload seed.
	pagingRuns = 8
)

// cell is one simulation: a configuration, its apps and a run length.
type cell struct {
	name   string
	cfg    sim.Config
	apps   []string
	trace  string // .mtb file replayed in place of apps[0]'s generator
	cycles int64
	seed   uint64 // mixed into every app's seed
}

// cellOut is what one cell measured.
type cellOut struct {
	load, build, run time.Duration // trace ingest, sim.New, Simulator.Run
	res              *sim.Results
	problem          string // "" when every check passed
}

// mix64 is the splitmix64 finalizer: it spreads a small seed over 64 bits.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// variantSeed is the seed mixed into the apps of one input variant.
func variantSeed(seed int64, variant int) uint64 {
	return mix64(uint64(seed) + uint64(variant)<<32)
}

// simCells lists the cells of one pass of a sim workload on one variant.
func simCells(r *run, variant int, traceFile string) []cell {
	seed := variantSeed(r.seed, variant)
	masked, shared := sim.MASKConfig(), sim.SharedTLBConfig()
	switch r.workload {
	case "contended":
		return []cell{
			{name: "MASK 3DS+CONS", cfg: masked, apps: []string{"3DS", "CONS"}, cycles: simCycles, seed: seed},
			{name: "MASK HISTO+LUD", cfg: masked, apps: []string{"HISTO", "LUD"}, cycles: simCycles, seed: seed},
			{name: "MASK trace(3DS)+CONS", cfg: masked, apps: []string{"3DS", "CONS"}, trace: traceFile, cycles: simCycles, seed: seed},
		}
	case "translation":
		return []cell{
			{name: "MASK MUM+GUP", cfg: masked, apps: []string{"MUM", "GUP"}, cycles: simCycles, seed: seed},
			{name: "SharedTLB MUM+GUP", cfg: shared, apps: []string{"MUM", "GUP"}, cycles: simCycles, seed: seed},
		}
	}
	paging := shared
	paging.DemandPaging = true
	cells := make([]cell, pagingRuns)
	for i := range cells {
		cells[i] = cell{
			name: fmt.Sprintf("SharedTLB+paging MUM+GUP #%d", i), cfg: paging, apps: []string{"MUM", "GUP"},
			cycles: pagingCycles, seed: mix64(uint64(r.seed)*pagingRuns + uint64(i)),
		}
	}
	return cells
}

// runCell builds and runs one cell, timing each call into the program and
// checking the result's invariants. Digests are checked by the caller.
func runCell(t *tracer, c cell, parent int) cellOut {
	var out cellOut
	id := t.begin("cell "+c.name, parent, 0)
	defer t.end(id)
	apps := make([]workload.App, len(c.apps))
	for i, n := range c.apps {
		apps[i] = workload.NewApp(i, n)
		apps[i].Seed ^= c.seed
	}
	if c.trace != "" {
		var err error
		out.load = t.timed("workload.LoadTraceFile", id, 0, func() { apps[0].Trace, err = workload.LoadTraceFile(c.trace) })
		if err != nil {
			out.problem = err.Error()
			return out
		}
	}
	var s *sim.Simulator
	var err error
	out.build = t.timed("sim.New", id, 0, func() { s, err = sim.New(c.cfg, apps, sim.EvenSplit(c.cfg.Cores, len(apps))) })
	if err != nil {
		out.problem = err.Error()
		return out
	}
	out.run = t.timed("sim.Run", id, 0, func() { out.res, err = s.Run(context.Background(), c.cycles) })
	switch {
	case err != nil:
		out.problem = err.Error()
	case out.res.Aborted:
		out.problem = "aborted: " + out.res.AbortReason
	case out.res.Cycles != c.cycles:
		out.problem = fmt.Sprintf("simulated %d cycles, asked for %d", out.res.Cycles, c.cycles)
	case out.res.CyclesTicked+out.res.CyclesSkipped != out.res.Cycles:
		out.problem = fmt.Sprintf("ticked %d + skipped %d != %d cycles", out.res.CyclesTicked, out.res.CyclesSkipped, out.res.Cycles)
	}
	return out
}

// digest fingerprints every simulated statistic of a result. CyclesTicked
// and CyclesSkipped are left out: they say how the engine covered the cycles,
// not what the simulated GPU did.
func digest(res *sim.Results) (string, error) {
	c := *res
	c.CyclesTicked, c.CyclesSkipped = 0, 0
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:4]), nil
}

// passOut aggregates one pass over a workload's cells: times in reference
// seconds (see hostclock.go), and the same times in host seconds.
type passOut struct {
	setup, build, run, wall   float64
	rawSetup, rawRun, rawWall time.Duration
	cycles, ticked            int64
	counters                  counters
}

// passesPerWorker sizes one worker's share of each sim workload to a few
// seconds of host time.
var passesPerWorker = map[string]int{"contended": 3, "translation": 8, "paging": 6}

// variants is the number of input variants a workload's passes rotate
// through: pass p runs variant p % variants, with its own seed derived from
// the workload seed (variant 0 mixes in the workload seed alone). The host
// time per cycle of contended's cells moves by 10-25% from one seed to the
// next, so its passes rotate over three seeds and a run's median does not
// rest on one seed's inputs.
var variants = map[string]int{"contended": 3, "translation": 1, "paging": 1}

// counters are exact work counts summed over a pass's results.
type counters struct {
	insts, l1tAccesses, l1tMisses, l2tAccesses, walks, faults, l2Accesses, dataServices, transServices uint64
}

func (c *counters) add(res *sim.Results) {
	for _, a := range res.Apps {
		c.insts += a.Instructions
		c.l1tAccesses += a.L1TLB.Accesses
		c.l1tMisses += a.L1TLB.Misses
	}
	c.l2tAccesses += res.L2TLBTotal.Accesses
	c.walks += res.Walker.Completed
	c.faults += res.Faults.Faults
	for _, s := range res.L2CacheLevel {
		c.l2Accesses += s.Accesses
	}
	c.dataServices += res.DRAMClass[0].Requests
	c.transServices += res.DRAMClass[1].Requests
}

// runSim is one worker's share of a sim workload: passesPerWorker[workload]
// passes over its cells. A traced worker runs every pass under the CPU
// profile and spans.
func runSim(r *run) error {
	nv := variants[r.workload]
	cells := make([][]cell, nv)
	textBytes := make([]int64, nv)
	for v := range cells {
		var traceFile string
		if r.workload == "contended" {
			var err error
			if traceFile, textBytes[v], err = writeTrace(r, v); err != nil {
				return err
			}
		}
		cells[v] = simCells(r, v, traceFile)
	}
	perPass := len(cells[0])
	recordedRun, recorded := recordedDigests[digestKey{r.workload, r.seed}]
	want := strings.Fields(recordedRun)
	if recorded && len(want) != nv*perPass {
		return fmt.Errorf("recorded digests list %d cells, the workload has %d", len(want), nv*perPass)
	}
	prof := &profiler{dir: r.work, prefix: fmt.Sprintf("cpu-%s-%d-w%d", r.workload, r.seed, r.worker)}
	if r.traced {
		if err := prof.start(); err != nil {
			return err
		}
	}
	first := make([]string, nv*perPass) // digests of each variant's first good pass
	var passes []passOut
	var ingest []float64 // MB/s of each trace load
	var maxTicked float64
	before := r.clock.probe()
	for pass := 0; pass < passesPerWorker[r.workload]; pass++ {
		var p passOut
		v := pass % nv
		id := r.spans.begin("pass", 0, 0)
		for i, c := range cells[v] {
			k := v*perPass + i
			out := runCell(r.spans, c, id)
			// Collect the cell's garbage between the timed intervals, so that
			// the next cell neither pays for it nor piles on top of it:
			// cells are independent, and peak_rss_mb is then one cell's
			// peak rather than a matter of when the collector ran.
			runtime.GC()
			after := r.clock.probe()
			p.setup += scale(out.load+out.build, before, after)
			p.run += scale(out.run, before, after)
			p.wall += scale(out.load+out.build+out.run, before, after)
			p.rawSetup += out.load + out.build
			p.rawRun += out.run
			p.rawWall += out.load + out.build + out.run
			p.build += scale(out.build, before, after)
			if c.trace != "" {
				ingest = append(ingest, float64(textBytes[v])/1e6/scale(out.load, before, after))
			}
			before = after
			if out.problem == "" {
				d, err := digest(out.res)
				if err != nil {
					return err
				}
				switch {
				case recorded && d != want[k]:
					out.problem = fmt.Sprintf("digest %s, recorded %s", d, want[k])
				case first[k] != "" && d != first[k]:
					out.problem = fmt.Sprintf("digest %s differs from the first pass's %s", d, first[k])
				}
				if first[k] == "" {
					first[k] = d
				}
			}
			r.rep.op(fmt.Sprintf("pass %d cell %s", pass, c.name), out.problem)
			if out.res != nil {
				p.cycles += out.res.Cycles
				p.ticked += out.res.CyclesTicked
				p.counters.add(out.res)
				maxTicked = max(maxTicked, float64(out.res.CyclesTicked)/float64(out.res.Cycles))
			}
		}
		r.rep.RTTs = append(r.rep.RTTs, p.wall)
		r.spans.end(id)
		passes = append(passes, p)
	}
	if r.traced {
		var tally layerTally
		if err := prof.stop(&tally); err != nil {
			return err
		}
		tally.setShares(r.rep)
		tally.check(r.rep, "all passes")
	}
	r.rep.notef("%d passes of %d cells over %d input variants", len(passes), perPass, nv)
	if r.workload == "contended" {
		r.rep.notef("traces: %v bytes as text", textBytes)
	}
	for v := range cells {
		for i, c := range cells[v] {
			r.rep.notef("digest variant %d %s = %s", v, c.name, first[v*perPass+i])
		}
	}
	r.rep.Digests = first
	if !recorded {
		r.rep.notef("no digests recorded for seed %d: checked that passes and workers agree only", r.seed)
	}
	if r.workload == "paging" && maxTicked > 0.05 {
		r.rep.notef("WARNING: a paging run ticked %.1f%% of its cycles; fast-forward is not what this run measures", 100*maxTicked)
	}

	var batch, rawBatch float64
	for _, p := range passes {
		r.rep.sample("setup_s", p.setup)
		r.rep.sample("raw.setup_s", p.rawSetup.Seconds())
		if p.run > 0 {
			r.rep.sample("sim_cycles_per_s", float64(p.cycles)/p.run)
			r.rep.sample("raw.sim_cycles_per_s", float64(p.cycles)/p.rawRun.Seconds())
		}
		r.rep.sample("raw.job_rtt_s", p.rawWall.Seconds())
		batch += p.wall
		rawBatch += p.rawWall.Seconds()
	}
	r.rep.sample("campaign_s", batch)
	r.rep.sample("raw.campaign_s", rawBatch)
	if err := r.rep.setPeakRSS(); err != nil {
		return err
	}

	// Per-layer metrics. Exact counters come from any pass (all agree).
	c := passes[0].counters
	r.rep.set("engine.ticked_frac", float64(passes[0].ticked)/float64(max(passes[0].cycles, 1)), "frac")
	r.rep.set("gpu.insts", float64(c.insts), "count")
	r.rep.set("tlb.l1_miss_rate", float64(c.l1tMisses)/float64(max(c.l1tAccesses, 1)), "frac")
	r.rep.set("tlb.l2_accesses", float64(c.l2tAccesses), "count")
	r.rep.set("ptw.walks", float64(c.walks), "count")
	r.rep.set("ptw.faults", float64(c.faults), "count")
	r.rep.set("cache.l2_accesses", float64(c.l2Accesses), "count")
	r.rep.set("dram.data_services", float64(c.dataServices), "count")
	r.rep.set("dram.trans_services", float64(c.transServices), "count")
	r.rep.set("experiments.sims_executed", float64(perPass), "count")
	r.rep.set("simcache.hit_frac", 0, "frac") // no result cache on this path
	r.rep.set("maskd.submit_ms_p50", 0, "ms") // no service on this path
	r.rep.set("workload.ingest_mb_per_s", median(ingest), "MB/s")
	var run, build float64
	var ticked int64
	for _, p := range passes {
		run += p.run
		build += p.build
		ticked += p.ticked
	}
	r.rep.set("sim.run_us_per_ticked_cycle", run*1e6/float64(max(ticked, 1)), "us")
	r.rep.set("sim.new_ms", build*1e3/float64(len(passes)*perPass), "ms")
	return nil
}

// writeTrace generates the contended workload's trace for one variant
// (untimed set-up): each warp records the 3DS generator's stream under the
// variant's seed. It writes the trace as .mtb and returns the path and the
// size of the same trace in the text format, the base of
// workload.ingest_mb_per_s.
func writeTrace(r *run, variant int) (string, int64, error) {
	const warps, perWarp = 960, 100
	const pageSize, lineSize = 4096, 64
	prof := workload.MustByName("3DS")
	ts := &workload.TraceSet{Name: "t3ds", Warps: make([][]workload.TraceEntry, warps)}
	for w := range ts.Warps {
		s := prof.NewStream(workload.StreamConfig{
			Base: 2 << 32, PageSize: pageSize, LineSize: lineSize,
			WarpIndex: w, NumWarps: warps, Seed: variantSeed(r.seed, variant),
		})
		entries := make([]workload.TraceEntry, perWarp)
		for i := range entries {
			m := s.NextMem()
			var addrs []uint64
			for _, pg := range m.Pages {
				addrs = append(addrs, pg.Lines...)
			}
			entries[i] = workload.TraceEntry{Addrs: addrs, Write: m.Write, ComputeGap: s.NextComputeGap()}
		}
		ts.Warps[w] = entries
	}
	text := streamio.CountingWriter{W: io.Discard}
	if err := ts.WriteText(&text); err != nil {
		return "", 0, err
	}
	path := filepath.Join(r.work, fmt.Sprintf("t3ds-%d-v%d.mtb", r.seed, variant))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if err := ts.EncodeMTB(f); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return path, text.N, nil
}
