package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tiny shrinks a workload to a size that runs in about a second.
func tiny(w workload) workload {
	w.gen.N, w.gen.Dim, w.gen.Clusters, w.gen.SubspaceDim = 400, 8, 3, 3
	w.datasets, w.queries = 2, 6
	if w.fleetN > 0 {
		w.fleetN = 400
	}
	return w
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts the report carries exactly the declared metrics,
// with their units and valid names.
func checkMetrics(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("report has %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !validName(m.Name):
			t.Errorf("declared metric name %q is invalid", m.Name)
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || !validName(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced and
// traced, and then proves its correctness gate trips on a changed Result.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmark(t)
	ctx := context.Background()
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			rep, err := untraced(ctx, w, 1, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep, b.EndToEnd)
			for _, m := range b.EndToEnd {
				if rep.Metrics[m.Name].Value == 0 && m.Name != "precision" && m.Name != "recall" {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}

			rep, err = traced(ctx, w, 1, time.Second, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("traced run failed %d of %d", rep.Failed, rep.Attempted)
			}
			checkMetrics(t, rep, b.PerLayer)

			// The gate: a warm-up Result that differs by one ulp must fail
			// the timed session of the same query.
			e, err := setup(ctx, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			var warm []answer
			switch e := e.(type) {
			case *inprocEnv:
				warm = e.warm
			case *fleetEnv:
				warm = e.warm
			}
			p := &warm[0].Probs[0].Probability
			*p = math.Nextafter(*p, 2)
			ph, err := e.run(ctx, 50*time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ph.failed == 0 {
				t.Error("a changed warm-up Result passed the digest gate")
			}
			if w.cfg.Index.Enabled() {
				if err := e.verify(ctx); err == nil {
					t.Error("a changed indexed Result passed the exact-backend check")
				}
			}
		})
	}
}
