package stringfigure_test

// Tests for the Workload/Session/Sweep public API: synthetic and
// trace-driven parity on node-liveness filtering, closed-loop end-to-end
// results against the Figure 12 experiment path, sweep determinism across
// worker counts, and concurrent session safety. This file lives in the
// external test package (dot-imported for brevity) because the experiments
// layer it cross-checks is itself a consumer of the public API.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	. "repro"
	"repro/internal/experiments"
)

func TestSessionDefaults(t *testing.T) {
	net, _ := New(WithNodes(16), WithSeed(1))
	cfg := net.NewSession(SessionConfig{}).Config()
	if cfg.Rate <= 0 || cfg.Warmup <= 0 || cfg.Measure <= 0 || cfg.PacketFlits <= 0 ||
		cfg.Ops <= 0 || cfg.Sockets <= 0 || cfg.Window <= 0 || cfg.Threads <= 0 ||
		cfg.MaxCycles <= 0 {
		t.Fatalf("zero config not filled: %+v", cfg)
	}
}

func TestSyntheticWorkloadSession(t *testing.T) {
	net, _ := New(WithNodes(32), WithSeed(4))
	sess := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1200, Seed: 2})
	res, err := sess.Run(SyntheticWorkload{Pattern: "tornado"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "tornado" || res.Seed != 2 || res.Rate != 0.05 {
		t.Errorf("result identity wrong: %+v", res)
	}
	if res.Delivered == 0 || res.AvgLatencyNs <= 0 || res.NetworkEnergyPJ <= 0 {
		t.Errorf("bad results: %+v", res)
	}
	if res.IPC != 0 || res.DRAMEnergyPJ != 0 {
		t.Errorf("synthetic run should not report memory-system metrics: %+v", res)
	}
	// Same session config, same workload: identical results.
	res2, err := net.NewSession(sess.Config()).Run(SyntheticWorkload{Pattern: "tornado"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("equal seeds produced different results:\n%+v\n%+v", res, res2)
	}
}

func TestFuncWorkload(t *testing.T) {
	net, _ := New(WithNodes(24), WithSeed(8))
	sess := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 300, Measure: 900, Seed: 3})
	res, err := sess.Run(FuncWorkload{
		Label: "next-door",
		Dest:  func(src int, rng *rand.Rand) (int, bool) { return (src + 1) % 24, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "next-door" || res.Delivered == 0 {
		t.Errorf("func workload failed: %+v", res)
	}
	if _, err := sess.Run(FuncWorkload{}); err == nil {
		t.Error("nil Dest should fail")
	}
}

func TestTraceWorkloadEndToEnd(t *testing.T) {
	// Session.Run on a Table IV workload must return nonzero IPC and read
	// latency, matching cmd/sfexp's Figure 12 path (experiments.RunWorkload
	// on the same topology seed) within noise — the two paths share trace
	// seeds and differ only in adjacency/port ordering.
	const n, seed = 32, 1
	net, err := New(WithNodes(n), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{Ops: 800, Sockets: 2, Window: 8, Threads: 4,
		MaxCycles: 10_000_000, Seed: seed}
	res, err := net.NewSession(cfg).Run(TraceWorkload{Workload: "grep"})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Errorf("IPC = %v, want > 0", res.IPC)
	}
	if res.AvgReadLatencyNs <= 0 {
		t.Errorf("AvgReadLatencyNs = %v, want > 0", res.AvgReadLatencyNs)
	}
	if res.DRAMAccesses == 0 || res.ReadsCompleted == 0 || res.DRAMEnergyPJ <= 0 {
		t.Errorf("memory system idle: %+v", res)
	}
	if res.TotalEnergyPJ <= res.NetworkEnergyPJ {
		t.Errorf("energy split inconsistent: %+v", res)
	}

	ref, err := experiments.RunWorkload("sf", "grep", experiments.WorkloadConfig{
		N: n, Ops: 800, Sockets: 2, Window: 8, Threads: 4,
		MaxCycles: 10_000_000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.IPC / ref.IPC; ratio < 0.6 || ratio > 1.67 {
		t.Errorf("public-API IPC %v vs experiments %v (ratio %.2f) outside noise",
			res.IPC, ref.IPC, ratio)
	}
}

func TestLivenessParitySyntheticVsTrace(t *testing.T) {
	// Both workload families must filter powered-off nodes the same way:
	// gated nodes neither source nor sink traffic, and runs complete.
	net, err := New(WithNodes(32), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 7, 19} { // node 0 is a default socket site
		if err := net.GateOff(v); err != nil {
			t.Fatal(err)
		}
	}
	cfg := SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1200,
		Ops: 400, Sockets: 2, Window: 8, MaxCycles: 10_000_000, Seed: 2}
	syn, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Deadlocked || syn.Delivered == 0 {
		t.Errorf("synthetic run on gated network unusable: %+v", syn)
	}
	tr, err := net.NewSession(cfg).Run(TraceWorkload{Workload: "redis"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Deadlocked || tr.IPC <= 0 || tr.ReadsCompleted == 0 {
		t.Errorf("trace run on gated network unusable: %+v", tr)
	}
}

func TestSweepDeterminism(t *testing.T) {
	// Same seeds => bit-identical results regardless of worker count or
	// scheduling (run with -cpu 1,4 to also vary GOMAXPROCS).
	net, err := New(WithNodes(32), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.23}
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, rates)
	points = append(points, Point{Workload: TraceWorkload{Workload: "grep"}})
	cfg := SessionConfig{Warmup: 300, Measure: 900,
		Ops: 300, Sockets: 2, Window: 8, MaxCycles: 10_000_000, Seed: 1}

	serial := net.SweepAll(cfg, points, 1)
	parallel := net.SweepAll(cfg, points, 4)
	if len(serial) != len(points) || len(parallel) != len(points) {
		t.Fatalf("result counts: serial %d, parallel %d, want %d",
			len(serial), len(parallel), len(points))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("point %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d differs across worker counts:\nserial:   %+v\nparallel: %+v",
				i, serial[i], parallel[i])
		}
	}
	// Seeds follow the published PointSeed derivation.
	for i := range serial {
		if serial[i].Seed != PointSeed(cfg.Seed, i) {
			t.Errorf("point %d seed = %d, want %d", i, serial[i].Seed, PointSeed(cfg.Seed, i))
		}
	}
}

func TestSweepReportsPointErrors(t *testing.T) {
	net, _ := New(WithNodes(16), WithSeed(1))
	points := []Point{
		{Workload: SyntheticWorkload{Pattern: "uniform"}, Rate: 0.05},
		{Workload: SyntheticWorkload{Pattern: "bogus"}, Rate: 0.05},
		{}, // nil workload must yield an errored Result, not a panic
		{Workload: SyntheticWorkload{Pattern: "uniform"}}, // rate from cfg
	}
	cfg := SessionConfig{Rate: 0.08, Warmup: 100, Measure: 300, Seed: 1}
	res := net.SweepAll(cfg, points, 2)
	if res[0].Err != nil {
		t.Errorf("good point errored: %v", res[0].Err)
	}
	if res[0].Rate != 0.05 {
		t.Errorf("point rate = %v, want 0.05", res[0].Rate)
	}
	if res[1].Err == nil || res[1].Workload != "bogus" {
		t.Errorf("bad point not reported: %+v", res[1])
	}
	if res[2].Err == nil {
		t.Errorf("nil-workload point not reported: %+v", res[2])
	}
	if res[3].Err != nil || res[3].Rate != cfg.Rate {
		t.Errorf("cfg-rate point: err=%v rate=%v, want rate %v", res[3].Err, res[3].Rate, cfg.Rate)
	}
}

func TestConcurrentSessionsWithReconfig(t *testing.T) {
	// One network, many sessions in flight, reconfiguration interleaved:
	// must not race or deadlock (run under -race in CI).
	net, err := New(WithNodes(32), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sess := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 200, Measure: 600, Seed: seed})
			if _, err := sess.Run(SyntheticWorkload{Pattern: "uniform"}); err != nil {
				t.Errorf("session: %v", err)
			}
		}(int64(g + 1))
	}
	for i := 0; i < 6; i++ {
		v := 3 + i
		if err := net.GateOff(v); err != nil {
			t.Fatal(err)
		}
		if err := net.GateOn(v); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
