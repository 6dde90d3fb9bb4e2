package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/ehr"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(seed int64) ehr.Config {
	cfg := ehr.Tiny()
	cfg.Seed = seed
	return cfg
}

// tinyRun runs one workload at the Tiny hospital for one round, or traced
// for one pair of rounds.
func tinyRun(t *testing.T, workload string, traced bool) (*run, result) {
	t.Helper()
	run := untracedRun
	if traced {
		run = tracedRun
	}
	r, res, err := run(workload, tinyConfig(1), 1, time.Nanosecond, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, res.Correct, res.Attempted, res.Failed, r.failures)
	}
	return r, res
}

// checkMetrics asserts that got holds exactly the metrics of want, each with
// its unit.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", workload, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestWorkloadsTinySmoke(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			_, res := tinyRun(t, name, false)
			checkMetrics(t, name, res.Metrics, spec.EndToEnd)
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}

			_, res = tinyRun(t, name, true)
			checkMetrics(t, name, res.Metrics, spec.PerLayer)
			if c := res.Metrics["trace.coverage"].Value; c < 0.95 {
				t.Errorf("spans cover %.3f of the traced rounds, want >= 0.95", c)
			}
			if e := res.Metrics["error_rate"].Value; e != 0 {
				t.Errorf("error_rate = %v", e)
			}
		})
	}
}

func TestWorkCountersRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, _ := tinyRun(t, name, false)
			b, _ := tinyRun(t, name, false)
			ca, cb := a.rounds[0], b.rounds[0]
			nonzero := 0
			for _, n := range deterministicCounters {
				if ca[n] != cb[n] {
					t.Errorf("%s: %v then %v", n, ca[n], cb[n])
				}
				if ca[n] != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("every work counter is zero")
			}
		})
	}
}
