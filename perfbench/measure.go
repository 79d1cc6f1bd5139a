package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// passSample is one pass's host-side cost.
type passSample struct {
	setup   float64 // seconds in cluster constructors and Close
	pass    float64 // seconds in the rest of the pass
	cpu     float64 // process CPU seconds (user+sys) over the whole pass
	allocMB float64
	gcs     float64
	pauseMs float64
	// steal is the share of the host's CPU time the hypervisor took from
	// this VM during the pass; -1 when /proc/stat is unreadable.
	steal float64
}

// runner executes passes of one workload and keeps their outcomes.
type runner struct {
	w *workload

	attempted, failed int
	failures          []string

	// firstModel and drifted track model drift per cell name.
	firstModel map[string]model
	drifted    map[string]bool
	// last holds each cell's model and output from the latest pass.
	last    map[string]model
	lastOut map[string]output
	// runNs sums each cell's run-phase host time over traced passes.
	runNs map[string]int64
}

func newRunner(w *workload) *runner {
	return &runner{
		w:          w,
		firstModel: make(map[string]model),
		drifted:    make(map[string]bool),
		last:       make(map[string]model),
		lastOut:    make(map[string]output),
		runNs:      make(map[string]int64),
	}
}

// pass runs every cell once, one at a time. With a tracer it records
// the span tree pass → cell → build/run/verify/close → Machine calls.
func (r *runner) pass(t *tracer) passSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0, pause0 := ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	steal0, jiffies0 := stealJiffies()
	cpu0 := cpuSeconds()
	start := time.Now()
	var setup time.Duration
	var passID int64
	if t != nil {
		passID = t.open("pass", 0, 0)
	}
	for _, c := range r.w.cells {
		setup += r.cell(c, t, passID)
	}
	if t != nil {
		t.end(passID)
	}
	total := time.Since(start)
	cpu := cpuSeconds() - cpu0
	steal := -1.0
	if steal1, jiffies1 := stealJiffies(); jiffies1 > jiffies0 {
		steal = float64(steal1-steal0) / float64(jiffies1-jiffies0)
	}
	runtime.ReadMemStats(&ms)
	return passSample{
		steal:   steal,
		setup:   setup.Seconds(),
		pass:    (total - setup).Seconds(),
		cpu:     cpu,
		allocMB: float64(ms.TotalAlloc-alloc0) / (1 << 20),
		gcs:     float64(ms.NumGC - gc0),
		pauseMs: float64(ms.PauseTotalNs-pause0) / 1e6,
	}
}

// maxSteal is the share of the host's CPU time the hypervisor may take
// from this VM during a clean pass. A pass that spent longer waiting for a
// physical CPU measures the neighbours, not the program: at 20% steal a
// serve-kv pass took 1.4 times as long on a 2-core VM.
const maxSteal = 0.05

// measure runs passes until n of them stayed within maxSteal or 1.25n
// have run, and keeps the n least-stolen, in run order. It returns them
// with every pass it ran. The cap bounds a run's length on a busy host.
func (r *runner) measure(n int, t *tracer) (kept, all []passSample) {
	clean := 0
	for clean < n && len(all) < n+n/4 {
		s := r.pass(t)
		all = append(all, s)
		if s.steal <= maxSteal {
			clean++
		}
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return all[idx[a]].steal < all[idx[b]].steal })
	idx = idx[:n]
	sort.Ints(idx)
	for _, i := range idx {
		kept = append(kept, all[i])
	}
	return kept, all
}

// cell builds, runs, verifies and closes one cell and returns the time
// spent in set-up (build and close).
func (r *runner) cell(c cell, t *tracer, passID int64) time.Duration {
	r.attempted++
	var cellID int64
	phase := func(name string) func() {
		if t == nil {
			return func() {}
		}
		id := t.open(name, cellID, cellID)
		return func() { t.end(id) }
	}
	if t != nil {
		cellID = t.open("cell:"+c.name, passID, 0)
		defer t.end(cellID)
	}

	t0 := time.Now()
	done := phase("build")
	inst, err := c.build()
	done()
	setup := time.Since(t0)
	if err != nil {
		r.fail(c.name, fmt.Sprintf("build: %v", err))
		return setup
	}

	var hook kernelHook
	var ct *cellTrace
	var runID int64
	if t != nil {
		ct = &cellTrace{t: t}
		hook = ct.hook
		runID = t.open("run", cellID, cellID)
	}
	t1 := time.Now()
	out, err := runSafely(inst, hook)
	if t != nil {
		t.end(runID)
		r.runNs[c.name] += int64(time.Since(t1))
		ct.finish(runID, cellID, c.engine == "core")
	}

	done = phase("verify")
	if err == nil && !c.ref.matches(out) {
		err = fmt.Errorf("output %s, pinned %s", describe(out), describe(c.ref.out))
	}
	if err != nil {
		r.fail(c.name, err.Error())
	} else {
		r.observe(c, inst.model(), out)
	}
	done()

	t2 := time.Now()
	done = phase("close")
	inst.close()
	done()
	return setup + time.Since(t2)
}

// runSafely runs the cell's program, turning a panic on the calling
// goroutine into an error. A panic on a node goroutine still ends the
// process, with a non-zero exit.
func runSafely(inst instance, hook kernelHook) (out output, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return inst.run(hook)
}

func (r *runner) fail(cell, why string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, cell+": "+why)
	}
}

// observe records a verified cell's model and counts drift: against the
// pinned model when there is one, otherwise against the run's first pass.
func (r *runner) observe(c cell, m model, out output) {
	ref := c.ref
	if ref.virtualNs == 0 {
		first, ok := r.firstModel[c.name]
		if !ok {
			first = m
			r.firstModel[c.name] = m
		}
		ref.virtualNs, ref.msgs = first.virtualNs, first.st.ProtocolMsgs
	}
	if m.virtualNs != ref.virtualNs || m.st.ProtocolMsgs != ref.msgs {
		r.drifted[c.name] = true
	}
	r.last[c.name] = m
	r.lastOut[c.name] = out
}

func describe(o output) string {
	if o.sum != 0 || o.ops != 0 {
		return fmt.Sprintf("checksum %#016x ops %d", o.sum, o.ops)
	}
	return fmt.Sprintf("check %v", o.check)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// stealJiffies reads the host's steal and total CPU time from the first
// line of /proc/stat; both are 0 when it cannot be read.
func stealJiffies() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// summary is a sample's median, quartiles and high percentile.
type summary struct {
	n      int
	p50    float64
	q1, q3 float64
	hi     float64 // the highest percentile with ten samples beyond it
	hiPct  float64
}

// summarize describes a sample. Quartiles use the exclusive method of
// Python's statistics.quantiles(n=4).
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	out := summary{n: n}
	if n == 0 {
		return out
	}
	out.p50 = median(append([]float64(nil), s...))
	out.q1, out.q3 = quantileExcl(s, 1), quantileExcl(s, 3)
	if n > hiTail {
		out.hi = s[n-hiTail-1]
		out.hiPct = 100 * float64(n-hiTail) / float64(n)
	}
	return out
}

// hiTail is how many samples must lie beyond the reported high percentile.
const hiTail = 10

// quantileExcl is the i-th quartile of sorted s, as Python's
// statistics.quantiles(s, n=4) computes it.
func quantileExcl(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}
