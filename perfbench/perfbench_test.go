package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	stringfigure "repro"
	"repro/internal/experiments"
)

// endToEnd are the metrics an untraced run reports.
var endToEnd = []string{"setup_s", "wall_s", "peak_rss_mb", "job_latency_p50_s", "job_latency_p90_s"}

func TestMetricNames(t *testing.T) {
	names := append([]string(nil), endToEnd...)
	for _, l := range perLayer {
		names = append(names, l.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !metricName.MatchString(n) || len(n) > 64 {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "wall s", "_x", "p90/s", "a:b"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the code's
// metric lists in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("end_to_end lists %v, the benchmark reports %v", e2e, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer lists %d metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] is %s (%s), the benchmark reports %s (%s)",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestPercentileRefusal(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, err := percentile(sample(99), 0.9); err == nil {
		t.Error("p90 over 99 samples leaves 9 beyond it and must be refused")
	}
	if _, err := percentile(sample(10), 0.5); err == nil {
		t.Error("p50 over 10 samples leaves 5 beyond it and must be refused")
	}
	// Over 1..100 the ±5-rank window around ranks 90 and 50 is symmetric.
	got, err := percentile(sample(100), 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 over 1..100 = %v, %v; want 90", got, err)
	}
	got, err = percentile(sample(100), 0.5)
	if err != nil || got != 50 {
		t.Errorf("p50 over 1..100 = %v, %v; want 50", got, err)
	}
	// A sample split in half between two classes: moving one value across
	// the boundary moves the windowed median by a fraction of the gap.
	split := func(cheap int) []float64 {
		xs := make([]float64, 108)
		for i := range xs {
			xs[i] = 1.5
			if i < cheap {
				xs[i] = 1
			}
		}
		return xs
	}
	a, _ := percentile(split(54), 0.5)
	b, _ := percentile(split(55), 0.5)
	if d := a - b; d <= 0 || d > 0.05 {
		t.Errorf("windowed median moved by %v when one sample crossed a 0.5 gap", d)
	}
}

func testEnv(t *testing.T, name string) *env {
	t.Helper()
	return &env{name: name, seed: 3, prog: programSeed(3), seconds: 0.001, workers: 2,
		out: t.TempDir(), log: io.Discard}
}

// TestInvalidJobSpecCountsAsFailed submits a mix with a spec the service
// rejects: the job counts as failed, and the run carries on.
func TestInvalidJobSpecCountsAsFailed(t *testing.T) {
	e := testEnv(t, "svc_jobs")
	s := &svc{jobs: []svcJob{
		{"plain", stringfigure.JobSpec{Design: "sf", Nodes: 16, Rates: []float64{0.05}, Warmup: 50, Measure: 100, Seed: 1}},
		{"invalid", stringfigure.JobSpec{Design: "sf", Nodes: 1}},
		{"plain", stringfigure.JobSpec{Design: "dm", Nodes: 16, Rates: []float64{0.05}, Warmup: 50, Measure: 100, Seed: 2}},
	}}
	if err := s.setup(e); err != nil {
		t.Fatal(err)
	}
	u, err := s.unit(e)
	if err != nil {
		t.Fatal(err)
	}
	if u.attempted != 3 || u.failed != 1 {
		t.Errorf("attempted %d failed %d; want 3 and 1", u.attempted, u.failed)
	}
	if len(s.results[0]) != 1 || len(s.results[1]) != 0 || len(s.results[2]) != 1 {
		t.Errorf("results per job %d/%d/%d; want 1/0/1", len(s.results[0]), len(s.results[1]), len(s.results[2]))
	}
}

// TestTracedAndUntracedDigestsAgree runs a tiny Figure 11 untraced and
// traced in one state directory: both must be correct, with one digest.
func TestTracedAndUntracedDigestsAgree(t *testing.T) {
	e := testEnv(t, "fig11_tiny")
	tiny := func() *figure {
		return fig11(16, []string{"uniform"}, []float64{0.05, 0.2}, experiments.SimScale{Warmup: 60, Measure: 120})
	}
	plain, err := execute(e, tiny())
	if err != nil {
		t.Fatal(err)
	}
	e.tr = NewTracer("tiny")
	traced, err := execute(e, tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*report{plain, traced} {
		if !r.result.Correct || r.result.Failed != 0 {
			t.Errorf("run not correct: %+v\n%s", r.result, strings.Join(r.notes, "\n"))
		}
	}
	digest := func(r *report) string {
		for _, n := range r.notes {
			if strings.HasPrefix(n, "digest ") {
				return strings.Fields(n)[1]
			}
		}
		return ""
	}
	if d := digest(plain); d == "" || d != digest(traced) {
		t.Errorf("untraced digest %q, traced %q", d, digest(traced))
	}
	if got := traced.result.Metrics["session.points"].Value; got == 0 {
		t.Error("traced run recorded no Session.Run calls")
	}
	for _, layer := range []string{"design", "routing", "netsim", "session", "sweep"} {
		found := false
		for _, s := range e.tr.Spans() {
			found = found || s.Layer == layer
		}
		if !found {
			t.Errorf("traced run has no %s span", layer)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "bench", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "session", Start: 1, End: 5, Attr: map[string]float64{"trace": 1}},
		{ID: 3, Parent: 1, Layer: "session", Start: 4, End: 6},
		{ID: 4, Parent: 1, Layer: "routing", Start: 7, End: 8, OffTable: true},
	}
	got := SelfTimes(spans)
	want := map[string]float64{"bench": 10 - 5 - 1, "session": 3 + 2, "trace": 1}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self time %v, want %v", k, got[k], v)
		}
	}
	if _, ok := got["routing"]; ok {
		t.Error("an off-table span reached the table")
	}
}
