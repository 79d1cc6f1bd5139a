package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1850*time.Millisecond {
		t.Fatalf("total %v, want 1.85s", a.total)
	}
	want := map[string]time.Duration{
		"vclock":    1200 * time.Millisecond,
		"swdsm":     200 * time.Millisecond,
		bucketBench: 150 * time.Millisecond,
		bucketGC:    100 * time.Millisecond,
		bucketSched: 90 * time.Millisecond,
		"machine":   60 * time.Millisecond,
		bucketOther: 50 * time.Millisecond,
	}
	var sum time.Duration
	for b, d := range a.buckets {
		if d != want[b] {
			t.Errorf("bucket %s = %v, want %v", b, d, want[b])
		}
		sum += d
	}
	if sum != a.total {
		t.Errorf("buckets sum to %v of %v samples", sum, a.total)
	}
	// The reported shares, with unlisted packages folded into "other",
	// account for every sample.
	var share float64
	fr := a.fractions()
	for _, p := range attrPackages {
		share += fr[p]
	}
	if math.Abs(share-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", share)
	}
	if got := fr[bucketOther]; math.Abs(got-110.0/1850) > 1e-12 {
		t.Errorf("other share %v, want machine+syscall = %v", got, 110.0/1850)
	}
}

func TestParseTracesRejectsEmpty(t *testing.T) {
	if _, err := parseTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Fatal("a profile without samples parsed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.p50 != 5.5 || s.q3 != 8.25 {
		t.Fatalf("q1 %v p50 %v q3 %v", s.q1, s.p50, s.q3)
	}
	// 25 passes: the 15th-ranked is the highest with ten beyond it.
	v := make([]float64, 25)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if s := summarize(v); s.hi != 15 || s.hiPct != 60 {
		t.Fatalf("hi %v at p%v, want 15 at p60", s.hi, s.hiPct)
	}
}

// TestWrongPinFails is the negative control: a run whose pinned checksum
// is wrong reports the failed cells and exits non-zero.
func TestWrongPinFails(t *testing.T) {
	const cell = "scope/matmult"
	good := pinned[cell]
	bad := good
	bad.out.check++
	pinned[cell] = bad
	defer func() { pinned[cell] = good }()

	var out, errs bytes.Buffer
	code := run([]string{"--workload", "kernels-4n", "--seconds", "0.01", "--out", t.TempDir()}, &out, &errs)
	if code == 0 {
		t.Fatalf("exit code 0 with a wrong pin; stderr: %s", errs.String())
	}
	res := lastLine(t, out.String())
	if res.Correct || res.Failed == 0 || res.Attempted == 0 {
		t.Fatalf("result %+v, want failures", res)
	}
	// Every pass ran the cell once: the warm-up plus the measured passes.
	if want := res.Attempted / len(kernels4n().cells); res.Failed != want {
		t.Fatalf("failed %d cells, want %d (one per pass)", res.Failed, want)
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac <= 0 {
		t.Fatalf("failed_frac %v", frac)
	}
}

// TestMetricsMatchBenchmarkJSON runs kernels-4n untraced and traced and
// checks that each emits exactly the metrics BENCHMARK.json lists, with
// their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]spec{"0": bench.EndToEnd, "1": bench.PerLayer} {
		var out, errs bytes.Buffer
		code := run([]string{"--workload", "kernels-4n", "--seconds", "0.01", "--trace", trace, "--out", t.TempDir()}, &out, &errs)
		res := lastLine(t, out.String())
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Fatalf("trace %s: exit %d, result %+v; stderr: %s", trace, code, res, errs.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, v, m.Unit)
			}
			if trace == "0" && v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
			}
		}
	}
}

type lastResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, stdout string) lastResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r lastResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}
