// Command maskbench is masksim's benchmark. It runs one named workload
// through the public entry points (sim.New, (*sim.Simulator).Run, the maskd
// server and client), checks every output, and prints its metrics.
//
//	maskbench --workload contended --seed 1 --seconds 30 --trace 0
//
// A run starts worker processes one after another until --seconds is spent
// (at least minWorkers). Each worker measures a fixed share of the workload;
// the run reports the median over workers of each metric, and latency
// percentiles over the pooled samples. Every timing is in reference
// seconds: host seconds scaled by a reference kernel that the parent runs
// between the worker's measurements (see hostclock.go), so that the figures
// follow the program rather than the shared host's load.
//
// Every line but the last is for people: notes, digests, sample counts, one
// "metric" line per measured value. The last line is one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end_to_end list of BENCHMARK.json; with --trace 1 every
// other worker takes a CPU profile and records spans around its calls into
// each layer, and the metrics are the per_layer list, from those workers.
// The program reads BENCHMARK.json from the working directory, so the lists
// live in one place. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minWorkers is the fewest workers a run starts, however short --seconds.
const minWorkers = 3

// run is one worker's measurement context.
type run struct {
	workload string
	seed     int64
	worker   int
	traced   bool
	work     string // generated inputs, profiles and spans
	clock    *hostClock
	spans    *tracer
	rep      *report
}

func main() {
	name := flag.String("workload", "", "workload: contended, translation, paging or campaign")
	seed := flag.Int64("seed", 1, "input seed: mixed into app seeds, or into campaign job order")
	seconds := flag.Float64("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run: CPU profile, spans and per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "directory for generated inputs, profiles and spans")
	worker := flag.Int("worker", -1, "run as worker `i` of a run and print its raw results (set by the run itself)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	switch *name {
	case "contended", "translation", "paging", "campaign":
	default:
		fatal(fmt.Errorf("unknown workload %q (want contended, translation, paging or campaign)", *name))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	if *worker >= 0 {
		if err := runWorker(*name, *seed, *worker, *trace == 1, *work); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	rep, err := orchestrate(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work)
	if err != nil {
		fatal(err)
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	if err := rep.print(want); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maskbench:", err)
	os.Exit(1)
}

// runWorker measures one worker's share and prints its report as JSON.
func runWorker(name string, seed int64, worker int, traced bool, work string) error {
	// The parent serves host-clock probes on fds 3 (requests) and 4.
	clock := &hostClock{req: os.NewFile(3, "clock-req"), resp: os.NewFile(4, "clock-resp")}
	r := &run{workload: name, seed: seed, worker: worker, traced: traced, work: work, clock: clock, rep: newReport()}
	if traced {
		r.spans = newTracer()
	}
	var err error
	if name == "campaign" {
		err = runCampaign(r)
	} else {
		err = runSim(r)
	}
	if err == nil && clock.err != nil {
		err = fmt.Errorf("host clock: %w", clock.err)
	}
	if err != nil {
		return err
	}
	r.rep.set("bench.ref_kernel_ms", r.clock.medianProbe(), "ms")
	r.rep.notef("host clock probes (ms): %s", r.clock.String())
	if traced {
		path := filepath.Join(work, fmt.Sprintf("spans-%s-%d-w%d.json", name, seed, worker))
		if err := r.spans.writeFile(path); err != nil {
			return err
		}
		r.rep.notef("spans written to %s", path)
	}
	return json.NewEncoder(os.Stdout).Encode(r.rep)
}

// orchestrate starts workers until the run's time is spent and merges their
// reports. In a traced run odd workers are traced: the per-layer metrics
// come from them, and the untraced workers between them give the baseline
// for bench.trace_overhead_frac.
func orchestrate(name string, seed int64, seconds time.Duration, traced bool, work string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	least := minWorkers
	if traced {
		least++ // two traced workers
	}
	// A worker that outlives the run's time by this much has hung.
	ctx, cancel := context.WithTimeout(context.Background(), seconds+2*time.Minute)
	defer cancel()
	kernel := newRefKernel(work)
	var plain, withTrace []*report
	var last time.Duration // the previous worker's wall-clock
	start := time.Now()
	for i := 0; i < least || time.Since(start)+last < seconds; i++ {
		t0 := time.Now()
		tracing := traced && i%2 == 1
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--trace", map[bool]string{false: "0", true: "1"}[tracing], "--work", work, "--worker", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := runServingClock(cmd, kernel)
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		w := newReport()
		if err := json.Unmarshal(out, w); err != nil {
			return nil, fmt.Errorf("worker %d: bad report: %w", i, err)
		}
		for _, n := range w.Notes {
			fmt.Printf("worker %d%s: %s\n", i, map[bool]string{false: "", true: " (traced)"}[tracing], n)
		}
		if tracing {
			withTrace = append(withTrace, w)
		} else {
			plain = append(plain, w)
		}
		last = time.Since(t0)
	}

	rep := newReport()
	all := append(plain, withTrace...)
	for i, w := range all {
		rep.Attempted += w.Attempted
		rep.Failed += w.Failed
		if i > 0 && w.Digests != nil {
			problem := ""
			if !slices.Equal(w.Digests, all[0].Digests) {
				problem = fmt.Sprintf("digests %v, the first worker's %v", w.Digests, all[0].Digests)
			}
			rep.op("worker digests agree", problem)
		}
	}
	src := plain
	if traced {
		src = withTrace
	}
	// Per-layer metrics are medians over workers; end-to-end metrics come
	// from the pooled samples.
	values := map[string][]float64{}
	for _, w := range src {
		for n, m := range w.Metrics {
			values[n] = append(values[n], m.Value)
			rep.Metrics[n] = m
		}
		for n, vs := range w.Samples {
			rep.Samples[n] = append(rep.Samples[n], vs...)
		}
		rep.RTTs = append(rep.RTTs, w.RTTs...)
	}
	for n, vs := range values {
		rep.set(n, median(vs), rep.Metrics[n].Unit)
	}
	rep.set("setup_s", median(rep.Samples["setup_s"]), "s")
	rep.set("sim_cycles_per_s", median(rep.Samples["sim_cycles_per_s"]), "1/s")
	rep.set("campaign_s", median(rep.Samples["campaign_s"]), "s")
	rep.set("job_rtt_ms_p50", 1e3*quantile(rep.RTTs, 0.5), "ms")
	rep.set("job_rtt_ms_p90", 1e3*quantile(rep.RTTs, 0.9), "ms")
	// The same figures in host seconds, for people (see hostclock.go).
	rep.set("raw.setup_s", median(rep.Samples["raw.setup_s"]), "s")
	rep.set("raw.sim_cycles_per_s", median(rep.Samples["raw.sim_cycles_per_s"]), "1/s")
	rep.set("raw.campaign_s", median(rep.Samples["raw.campaign_s"]), "s")
	rep.set("raw.job_rtt_ms_p50", 1e3*quantile(rep.Samples["raw.job_rtt_s"], 0.5), "ms")
	rep.set("raw.job_rtt_ms_p90", 1e3*quantile(rep.Samples["raw.job_rtt_s"], 0.9), "ms")
	rep.notef("%d untraced + %d traced workers; %d campaign_s samples; job_rtt over %d samples",
		len(plain), len(withTrace), len(rep.Samples["campaign_s"]), len(rep.RTTs))
	if traced {
		walls := func(ws []*report) []float64 {
			var out []float64
			for _, w := range ws {
				out = append(out, w.Samples["campaign_s"]...)
			}
			return out
		}
		rep.set("bench.trace_overhead_frac", median(walls(withTrace))/median(walls(plain))-1, "frac")
	}
	b, err := json.Marshal(map[string]any{"samples": rep.Samples, "rtts": rep.RTTs})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(work, fmt.Sprintf("samples-%s-%d-trace%d.json", name, seed, map[bool]int{false: 0, true: 1}[traced]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// runServingClock runs a worker to completion and returns its standard
// output, serving host-clock probes from kernel while it runs.
func runServingClock(cmd *exec.Cmd, kernel *refKernel) ([]byte, error) {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer reqR.Close()
	respR, respW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return nil, err
	}
	defer respW.Close()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.ExtraFiles = []*os.File{reqW, respR}
	err = cmd.Start()
	// The worker holds its own copies now; closing ours lets serve see EOF
	// when the worker exits.
	reqW.Close()
	respR.Close()
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- kernel.serve(reqR, respW) }()
	err = cmd.Wait()
	return out.Bytes(), errors.Join(err, <-served)
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the results of a worker or a whole run: every measured
// metric, the op counts, the per-op round trips and human-readable notes.
type report struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples holds the per-pass (campaign: per-campaign, per-server-start)
	// measurements behind the end-to-end metrics, pooled over a run's workers.
	Samples map[string][]float64 `json:"samples"`
	// RTTs holds one round trip per job, in seconds: a pass of the sim
	// workloads, a warm maskd job.
	RTTs []float64 `json:"rtts"`
	// Digests fingerprints a worker's simulated results (sim workloads);
	// every worker of a run must report the same.
	Digests []string `json:"digests"`
	Notes   []string `json:"notes"`
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Samples: map[string][]float64{}}
}

func (p *report) sample(name string, v float64) {
	p.Samples[name] = append(p.Samples[name], v)
}

func (p *report) set(name string, v float64, unit string) {
	p.Metrics[name] = metric{v, unit}
}

func (p *report) notef(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

// op records one attempted operation; a non-empty problem marks it failed.
func (p *report) op(what, problem string) {
	p.Attempted++
	if problem != "" {
		p.Failed++
		p.notef("FAILED %s: %s", what, problem)
	}
}

// setPeakRSS sets peak_rss_mb from the process's peak resident set.
func (p *report) setPeakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	p.set("peak_rss_mb", mb, "MB")
	return nil
}

// print writes the run's notes, every measured metric, and the result line
// holding exactly the metrics in want. A declared metric the run did not
// measure, or measured with another unit, is an error: the result line
// would break the benchmark's contract.
func (p *report) print(want []metricSpec) error {
	out := map[string]metric{}
	for _, m := range want {
		got, ok := p.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
		out[m.Name] = got
	}
	var sb strings.Builder
	for _, n := range p.Notes {
		fmt.Fprintln(&sb, n)
	}
	names := make([]string, 0, len(p.Metrics))
	for n := range p.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "metric %-34s %.6g %s\n", n, p.Metrics[n].Value, p.Metrics[n].Unit)
	}
	failFrac := 0.0
	if p.Attempted > 0 {
		failFrac = float64(p.Failed) / float64(p.Attempted)
	}
	fmt.Fprintf(&sb, "metric %-34s %.6g frac (%d of %d ops failed)\n", "fail_frac", failFrac, p.Failed, p.Attempted)
	var line bytes.Buffer
	err := json.NewEncoder(&line).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{p.Failed == 0 && p.Attempted > 0, p.Attempted, p.Failed, out})
	if err != nil {
		return err
	}
	sb.Write(line.Bytes())
	_, err = os.Stdout.WriteString(sb.String())
	return err
}
