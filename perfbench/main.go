// Command perfbench is the repository benchmark: it runs one named
// workload of the HAMSTER simulator in a closed loop of passes and prints
// host-side end-to-end metrics, or with --trace 1 per-layer metrics from
// a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"hamster/internal/consengine"
	"hamster/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	metrics           []metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed (serve-kv traffic)")
	fs.Float64Var(&o.seconds, "seconds", 20, "nominal measuring time; fixes the pass count")
	fs.IntVar(&trace, "trace", 0, "1 = traced run with per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for run records and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workload == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds > 0 and --trace 0|1")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	total := result{}
	for _, name := range names {
		res, err := runWorkload(o, name, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		total.attempted += res.attempted
		total.failed += res.failed
		for _, m := range res.metrics {
			if len(names) > 1 {
				m.name = name + "." + m.name
			}
			total.metrics = append(total.metrics, m)
		}
	}
	if err := printResult(stdout, total); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if total.failed > 0 {
		return 1
	}
	return 0
}

// printResult writes the machine-readable last line.
func printResult(w io.Writer, r result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// passCount is the run's fixed number of measured passes. At the
// minimum, the tail percentile (ten passes beyond it) is p60.
func passCount(w *workload, seconds float64) int {
	const minPasses = 25
	n := int(math.Round(seconds / w.passSeconds))
	if n < minPasses {
		n = minPasses
	}
	return n
}

func runWorkload(o options, name string, stdout io.Writer) (result, error) {
	w, err := workloadByName(name, o.seed)
	if err != nil {
		return result{}, err
	}
	r := newRunner(w)
	rec := record{
		Workload:   name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		HostCores:  runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(stdout, "== %s  seed %d  host_cores %d  GOMAXPROCS %d  cells %d\n",
		name, o.seed, rec.HostCores, rec.GOMAXPROCS, len(w.cells))

	r.pass(nil) // warm-up: checked, not timed
	n := passCount(w, o.seconds)
	var metrics []metric
	if !o.trace {
		samples, all := r.measure(n, nil)
		rec.PassesRun = len(all)
		metrics = endToEnd(samples, &rec, stdout)
	} else {
		metrics, err = tracedRun(o, r, n, &rec, stdout)
		if err != nil {
			return result{}, err
		}
	}

	rec.Attempted, rec.Failed, rec.Failures = r.attempted, r.failed, r.failures
	rec.FailedFrac = float64(r.failed) / float64(r.attempted)
	rec.Cells = cellRecords(r)
	rec.Metrics = make(map[string]float64, len(metrics))
	for _, m := range metrics {
		rec.Metrics[m.name] = m.value
	}
	fmt.Fprintf(stdout, "  %-28s %12.6f  (%d of %d cells)\n", "failed_frac", rec.FailedFrac, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(stdout, "  FAILED", f)
	}
	for _, c := range rec.Cells {
		fmt.Fprintf(stdout, "  cell %-22s %-34s virtual %12d ns  msgs %8d  drift %v\n",
			c.Name, c.Output, c.VirtualNs, c.ProtocolMsgs, c.Drift)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, o.seed, b2i(o.trace)))
	if err := writeJSON(path, rec); err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, "  record", path)
	return result{attempted: r.attempted, failed: r.failed, metrics: metrics}, nil
}

// endToEnd turns untraced passes into the end-to-end metrics.
func endToEnd(samples []passSample, rec *record, stdout io.Writer) []metric {
	rec.Passes = len(samples)
	rec.PassS = passValues(samples)
	rec.StealFrac = field(samples, func(s passSample) float64 { return s.steal })
	rec.SetupS = field(samples, func(s passSample) float64 { return s.setup })
	rec.CPUS = field(samples, func(s passSample) float64 { return s.cpu })
	setup, pass, cpu := summarize(rec.SetupS), summarize(rec.PassS), summarize(rec.CPUS)
	rss := peakRSSMB()
	fmt.Fprintf(stdout, "  %-28s %12s %12s %12s %6s\n", "metric (unit)", "median", "q1", "q3", "n")
	show := func(name, unit string, s summary) {
		fmt.Fprintf(stdout, "  %-28s %12.6f %12.6f %12.6f %6d\n", name+" ("+unit+")", s.p50, s.q1, s.q3, s.n)
	}
	show("setup_s", "s", setup)
	show("pass_s_p50", "s", pass)
	fmt.Fprintf(stdout, "  %-28s %12.6f  = p%.1f of %d passes (%d beyond it)\n",
		"pass_s_hi (s)", pass.hi, pass.hiPct, pass.n, hiTail)
	show("cpu_s_p50", "s", cpu)
	fmt.Fprintf(stdout, "  %-28s %12.3f  (process high-water, 1 sample)\n", "peak_rss_mb (MB)", rss)
	fmt.Fprintf(stdout, "  host steal: median %.3f over kept passes; %d passes run, %d kept (at most %.0f%% stolen, or the least-stolen)\n",
		median(append([]float64(nil), rec.StealFrac...)), rec.PassesRun, rec.Passes, 100*maxSteal)
	return []metric{
		{"setup_s", setup.p50, "s"},
		{"pass_s_p50", pass.p50, "s"},
		{"pass_s_hi", pass.hi, "s"},
		{"cpu_s_p50", cpu.p50, "s"},
		{"peak_rss_mb", rss, "MB"},
	}
}

// tracedRun measures untraced passes as the overhead baseline, then
// traced passes under the CPU profiler, then the layer microbenchmarks,
// and returns the per-layer metrics.
func tracedRun(o options, r *runner, n int, rec *record, stdout io.Writer) ([]metric, error) {
	half := n / 2
	base, baseAll := r.measure(half, nil)
	profPath := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", r.w.name, o.seed))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t := newTracer()
	traced, tracedAll := r.measure(half, t)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	attr, err := attributeProfile(profPath)
	if err != nil {
		return nil, err
	}
	spanPath := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", r.w.name, o.seed))
	if err := writeSpans(spanPath, t.spans); err != nil {
		return nil, err
	}
	rec.Passes = half
	rec.PassesRun = len(baseAll) + len(tracedAll)
	rec.SelfNs = selfTimes(t.spans)

	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }
	// Tracer totals cover every traced pass run, kept or not.
	passes := float64(len(tracedAll))

	baseSum := summarize(passValues(base))
	tracedSum := summarize(passValues(traced))
	add("trace.overhead_frac", tracedSum.p50/baseSum.p50-1, "frac")
	add("trace.spans_dropped", float64(t.dropped), "count")

	fracs := attr.fractions()
	for _, p := range attrPackages {
		add("cpu."+p+"_frac", fracs[p], "frac")
	}

	for _, mc := range micros() {
		ns, allocs, err := runMicro(mc)
		if err != nil {
			return nil, err
		}
		add(mc.name+"_ns", ns, "ns")
		add(mc.name+"_allocs", allocs, "allocs/op")
	}

	// Modeled counters of the last traced pass, by engine family.
	var sw, iv, all model
	var runNs, serveRunNs int64
	var rep serve.Report
	for _, c := range r.w.cells {
		m := r.last[c.name]
		if c.engine == consengine.IVYName {
			iv.add(m)
		} else {
			sw.add(m)
		}
		all.add(m)
		if out := r.lastOut[c.name]; out.serveRep != nil {
			rep, serveRunNs = *out.serveRep, r.runNs[c.name]
		} else {
			runNs += r.runNs[c.name]
		}
	}
	add("swdsm.page_faults", float64(sw.st.PageFaults), "count")
	add("swdsm.twins", float64(sw.st.TwinsCreated), "count")
	add("swdsm.diffs", float64(sw.st.DiffsCreated), "count")
	add("swdsm.diff_bytes", float64(sw.st.DiffBytes), "bytes")
	add("swdsm.protocol_msgs", float64(sw.st.ProtocolMsgs), "count")
	add("ivy.invalidations", float64(iv.st.Invalidations), "count")
	add("ivy.home_migrations", float64(iv.st.HomeMigrations), "count")
	add("ivy.protocol_msgs", float64(iv.st.ProtocolMsgs), "count")

	mc := t.mc
	add("machine.word_accesses", float64(mc.words)/passes, "count")
	add("machine.word_access_ns", ratio(float64(mc.sampledNs), float64(mc.sampled)), "ns")
	add("machine.block_access_ns", ratio(float64(mc.blockNs), float64(mc.blocks)), "ns")
	add("machine.barrier_wait_s", float64(mc.barrierNs)/1e9/passes, "s")
	add("machine.lock_wait_s", float64(mc.lockNs)/1e9/passes, "s")
	add("host_ns_per_access", ratio(float64(runNs), float64(mc.words+mc.blockWords)), "ns")
	// Kernel self time comes from the profile, not from spans: a timed
	// word access costs more than an untimed one in the pipelined access
	// stream, so subtracting extrapolated call times from the run span
	// overstates the calls.
	tracedCPU := 0.0
	for _, s := range tracedAll {
		tracedCPU += s.cpu
	}
	add("apps.self_s", fracs["apps"]*tracedCPU/passes, "s")
	add("core.lock_wait_s", float64(mc.coreLockNs)/1e9/passes, "s")

	add("simnet.msgs", float64(all.netMsgs), "count")
	add("simnet.bytes", float64(all.netBytes), "bytes")
	add("amsg.calls", float64(all.calls), "count")
	add("amsg.bytes", float64(all.callBytes), "bytes")
	add("amsg.retries", float64(all.retries), "count")
	delivered := 1.0
	if all.calls > 0 {
		delivered = float64(all.serviced) / float64(all.calls)
	}
	add("amsg.delivered_frac", delivered, "frac")

	add("serve.host_ns_per_op", ratio(float64(serveRunNs)/passes, float64(rep.Applied)), "ns")
	add("serve.ops", float64(rep.Applied), "count")
	add("serve.stalls", float64(rep.Stalled), "count")
	add("serve.p99_ns", float64(rep.P99Ns), "ns")
	add("serve.achieved_over_offered", ratio(rep.AchievedPerSec, rep.OfferedPerSec), "frac")

	add("gc.alloc_mb_per_pass", median(field(base, func(s passSample) float64 { return s.allocMB })), "MB")
	add("gc.cycles_per_pass", median(field(base, func(s passSample) float64 { return s.gcs })), "count")
	add("gc.pause_ms_per_pass", median(field(base, func(s passSample) float64 { return s.pauseMs })), "ms")

	add("model.virtual_ms", float64(all.virtualNs)/1e6, "ms")
	add("model.compute_ms", float64(all.bd.Compute)/1e6, "ms")
	add("model.memory_ms", float64(all.bd.Memory)/1e6, "ms")
	add("model.protocol_ms", float64(all.bd.Protocol)/1e6, "ms")
	add("model.network_ms", float64(all.bd.Network)/1e6, "ms")
	add("model.stolen_ms", float64(all.bd.Stolen)/1e6, "ms")
	add("model.virtual_drift_cells", float64(len(r.drifted)), "count")

	fmt.Fprintf(stdout, "  traced run: %d untraced + %d traced passes kept of %d + %d run; pass_s_p50 %.6f s untraced, %.6f s traced\n",
		half, half, len(baseAll), len(tracedAll), baseSum.p50, tracedSum.p50)
	attached := make(map[string]string)
	for _, mc := range micros() {
		attached[mc.name+"_ns"] = mc.workload
		attached[mc.name+"_allocs"] = mc.workload
	}
	for _, m := range ms {
		note := ""
		if w := attached[m.name]; w != "" && w != r.w.name {
			note = "  (microbenchmark attached to " + w + ")"
		}
		fmt.Fprintf(stdout, "  %-34s %16.6f %s%s\n", m.name, m.value, m.unit, note)
	}
	fmt.Fprintln(stdout, "  spans", spanPath, "profile", profPath)
	return ms, nil
}

func passValues(s []passSample) []float64 {
	return field(s, func(p passSample) float64 { return p.pass })
}

func field(s []passSample, f func(passSample) float64) []float64 {
	v := make([]float64, len(s))
	for i := range s {
		v[i] = f(s[i])
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// record is the full run record written beside the summary line.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	HostCores  int                `json:"host_cores"`
	GOMAXPROCS int                `json:"GOMAXPROCS"`
	Passes     int                `json:"passes"`
	PassesRun  int                `json:"passes_run"` // kept plus discarded for host steal
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
	PassS      []float64          `json:"pass_s"`
	StealFrac  []float64          `json:"steal_frac"`
	SetupS     []float64          `json:"setup_s"`
	CPUS       []float64          `json:"cpu_s"`
	Metrics    map[string]float64 `json:"metrics"`
	SelfNs     map[string]int64   `json:"span_self_ns,omitempty"`
	Cells      []cellRecord       `json:"cells"`
}

type cellRecord struct {
	Name         string `json:"name"`
	Output       string `json:"output"`
	VirtualNs    uint64 `json:"virtual_ns"`
	ProtocolMsgs uint64 `json:"protocol_msgs"`
	Drift        bool   `json:"drift"`
}

func cellRecords(r *runner) []cellRecord {
	var out []cellRecord
	for _, c := range r.w.cells {
		m, ok := r.last[c.name]
		if !ok {
			continue
		}
		out = append(out, cellRecord{c.name, describe(r.lastOut[c.name]), m.virtualNs, m.st.ProtocolMsgs, r.drifted[c.name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
