package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// CPU attribution: every sample of the traced run's CPU profile goes to
// one bucket. The bucket is the innermost frame's package when that frame
// is in hamster/internal/<pkg> or the benchmark itself; a sample with
// neither goes to runtime GC, the runtime scheduler, or "other".

const internalPrefix = "hamster/internal/"

// Buckets for samples with no hamster/internal frame.
const (
	bucketGC    = "runtime_gc"
	bucketSched = "runtime_sched"
	bucketBench = "perfbench" // the benchmark's own code: tracing cost
	bucketOther = "other"
)

// attrPackages are the cpu.<pkg>_frac metrics every traced run reports.
var attrPackages = []string{
	"vclock", "swdsm", "ivy", "memsim", "pagestore", "notices", "hsync",
	"core", "amsg", "simnet", "serve", "loadgen", "perfmon", "apps",
	bucketGC, bucketSched, bucketBench, bucketOther,
}

// gcFrames and schedFrames mark a runtime-only stack as GC or scheduler
// work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.sweepone",
	"runtime.GC",
}
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall",
	"runtime.park_m", "runtime.goexit0", "runtime.stopm", "runtime.startm",
	"runtime.sysmon", "runtime.mstart", "runtime.wakep", "runtime.gopark",
	"runtime.goready", "runtime.futex", "runtime.notesleep",
}

// attribution is the parsed profile: sample time per bucket.
type attribution struct {
	total   time.Duration
	buckets map[string]time.Duration
}

// fractions returns each of attrPackages' share of the samples; buckets
// outside that list count as "other", so the shares sum to 1.
func (a attribution) fractions() map[string]float64 {
	out := make(map[string]float64, len(attrPackages))
	rest := a.total
	for _, p := range attrPackages {
		if p != bucketOther {
			out[p] = float64(a.buckets[p]) / float64(a.total)
			rest -= a.buckets[p]
		}
	}
	out[bucketOther] = float64(rest) / float64(a.total)
	return out
}

// attributeProfile runs the installed toolchain's pprof on a CPU profile
// and attributes its samples.
func attributeProfile(path string) (attribution, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path).Output()
	if err != nil {
		return attribution{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// "-----------+---" rules, each a sample value and its innermost frame on
// one line, then the caller frames one per line.
func parseTraces(r io.Reader) (attribution, error) {
	a := attribution{buckets: make(map[string]time.Duration)}
	var value time.Duration
	var frames []string
	flush := func() {
		if frames != nil {
			a.buckets[bucketOf(frames)] += value
			a.total += value
		}
		frames = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue // header: File, Type, Duration, ...
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if frames == nil {
			d, err := parseSampleValue(f[0])
			if err != nil {
				continue // a label line before the sample value
			}
			if len(f) < 2 {
				return a, fmt.Errorf("pprof traces: value %q without a frame", f[0])
			}
			value, frames = d, []string{f[1]}
			continue
		}
		frames = append(frames, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return a, err
	}
	if a.total == 0 {
		return a, fmt.Errorf("pprof traces: no samples")
	}
	return a, nil
}

// parseSampleValue parses pprof's scaled durations: 10ms, 1.20s, 1.5mins.
func parseSampleValue(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60e9}, {"hrs", 3600e9}, {"ms", 1e6}, {"us", 1e3}, {"µs", 1e3}, {"ns", 1}, {"s", 1e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(v * u.scale), nil
		}
	}
	return 0, fmt.Errorf("not a sample value: %q", s)
}

// bucketOf attributes one stack, innermost frame first.
func bucketOf(frames []string) string {
	for _, fn := range frames {
		if pkg, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
	}
	for _, fn := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return bucketGC
			}
		}
	}
	for _, fn := range frames {
		for _, s := range schedFrames {
			if strings.HasPrefix(fn, s) {
				return bucketSched
			}
		}
	}
	return bucketOther
}
