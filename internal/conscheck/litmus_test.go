package conscheck

import (
	"strings"
	"testing"
	"time"

	"hamster/internal/consengine"
	"hamster/internal/ivy"
	"hamster/internal/multidsm"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

const litmusTrials = 6

func buildScope(nodes int) (consengine.Engine, error) {
	d, err := swdsm.New(swdsm.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func buildEagerRC(nodes int) (consengine.Engine, error) {
	d, err := swdsm.New(swdsm.Config{Nodes: nodes, Protocol: swdsm.EagerRC})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func buildIVY(nodes int) (consengine.Engine, error) {
	d, err := ivy.New(ivy.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func buildMultiIVY(nodes int) (consengine.Engine, error) {
	d, err := multidsm.New(multidsm.Config{Nodes: nodes, PageEngine: "ivy"})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func buildSMP(nodes int) (consengine.Engine, error) {
	s, err := smp.New(smp.Config{CPUs: nodes})
	if err != nil {
		return nil, err
	}
	return consengine.Wrap(s), nil
}

func checkBattery(t *testing.T, name string, build func(int) (consengine.Engine, error)) {
	t.Helper()
	verdicts, err := RunBattery(build, litmusTrials)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(verdicts) != len(Battery()) {
		t.Fatalf("%s: %d verdicts", name, len(verdicts))
	}
	for _, v := range verdicts {
		if !v.OK() {
			t.Errorf("%s: %s", name, v.String())
		}
		if len(v.Observed) == 0 {
			t.Errorf("%s: %s observed nothing", name, v.Test)
		}
	}
}

// TestLitmusDefaultEngine is the conformance gate scripts/check.sh runs
// under -race: the default scope engine must pass the whole battery.
func TestLitmusDefaultEngine(t *testing.T) {
	checkBattery(t, "scope", buildScope)
}

func TestLitmusEagerRC(t *testing.T) {
	checkBattery(t, "eager-rc", buildEagerRC)
}

// TestLitmusIVY checks the write-invalidate engine against its Sequential
// declaration — the strongest claim in the registry, so every relaxed
// outcome (store buffering, IRIW disagreement) is forbidden for it.
func TestLitmusIVY(t *testing.T) {
	checkBattery(t, "ivy", buildIVY)
}

// TestLitmusIVYHomeFaultNoLivelock is the regression test for a home
// node that faults on its own page while a remote request bootstraps it:
// the fault loop used to re-ask itself forever. The racy litmus programs
// hit that window often under the race detector, so many trials with a
// deadline turn a livelock into a failure instead of a hung suite.
func TestLitmusIVYHomeFaultNoLivelock(t *testing.T) {
	const trials = 60
	type result struct {
		verdicts []Verdict
		err      error
	}
	done := make(chan result, 1)
	go func() {
		v, err := RunBattery(buildIVY, trials)
		done <- result{v, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		for _, v := range r.verdicts {
			if !v.OK() {
				t.Errorf("ivy: %s", v.String())
			}
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("ivy battery of %d trials did not finish within 2m: a fault loop is livelocked", trials)
	}
}

// TestLitmusIVYOnMultiDSM runs the battery on the multidsm substrate with
// the IVY page engine serving every allocation: the composition inherits
// (and must honor) the Sequential declaration.
func TestLitmusIVYOnMultiDSM(t *testing.T) {
	eng, err := buildMultiIVY(2)
	if err != nil {
		t.Fatal(err)
	}
	if eng.DeclaredModel() != consengine.Sequential {
		t.Fatalf("multidsm+ivy declares %v", eng.DeclaredModel())
	}
	eng.Close()
	checkBattery(t, "multi-ivy", buildMultiIVY)
}

func TestLitmusSMP(t *testing.T) {
	if raceEnabled {
		// The SMP substrate models hardware shared memory as direct
		// byte-slice access, so the deliberately racy litmus programs are
		// Go-level data races there (unlike the DSM engines, which
		// serialize internally). The unraced run still covers it.
		t.Skip("racy litmus programs race on the SMP substrate's backing memory")
	}
	checkBattery(t, "smp", buildSMP)
}

// TestLitmusCatchesBrokenEngine is the harness's negative control: an
// engine that drops its invalidations on release/barrier silently serves
// stale copies, and the barrier-publication test must convict it.
func TestLitmusCatchesBrokenEngine(t *testing.T) {
	broken := func(nodes int) (consengine.Engine, error) {
		d, err := swdsm.New(swdsm.Config{Nodes: nodes, DropInvalidations: true})
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	var pub Litmus
	for _, l := range Battery() {
		if l.Name == "barrier-publication" {
			pub = l
		}
	}
	if pub.Name == "" {
		t.Fatal("barrier-publication missing from the battery")
	}
	v, err := RunLitmus(pub, broken, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK() {
		t.Fatalf("the broken engine must be convicted, got: %s", v.String())
	}
	found := false
	for _, viol := range v.Violations {
		if strings.Contains(viol, "x=1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected stale x=1 observations, got: %s", v.String())
	}
}

// TestVerdictString covers the human-readable rendering both ways.
func TestVerdictString(t *testing.T) {
	v, err := RunLitmus(storeBuffering(), buildScope, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := v.String()
	if !strings.Contains(s, "store-buffering") || !strings.Contains(s, "observed") {
		t.Fatalf("verdict rendering: %q", s)
	}
}
