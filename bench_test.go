package stringfigure_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section VI). Each benchmark regenerates its artifact through
// internal/experiments and reports the headline numbers as custom metrics,
// so `go test -bench=. -benchmem` reproduces the paper end to end. The
// experiments use reduced-but-representative scales so the full suite
// finishes in minutes; cmd/sfexp runs the full-scale versions, and
// EXPERIMENTS.md records a complete run. External test package (dot-
// imported): the experiments layer consumes the public API.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	. "repro"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkFig5_PathLengthComparison regenerates Figure 5: average shortest
// path length of Jellyfish, S2 and String Figure random topologies. The
// headline metric is the SF mean path length at the largest scale.
func BenchmarkFig5_PathLengthComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig5([]int{100, 200, 400}, 2, 64)
		if err != nil {
			b.Fatal(err)
		}
		last := s.Rows[len(s.Rows)-1]
		b.ReportMetric(last[3], "sf_hops@400")
		b.ReportMetric(last[1], "jellyfish_hops@400")
	}
}

// BenchmarkFig9a_HopCounts regenerates Figure 9(a): average hop count of
// every design as the network scales, plus SF's P10/P90.
func BenchmarkFig9a_HopCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig9a([]int{64, 256, 1024}, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := s.Rows[len(s.Rows)-1]
		b.ReportMetric(last[1], "dm_hops@1024")
		b.ReportMetric(last[6], "sf_hops@1024")
		b.ReportMetric(last[8], "sf_p90@1024")
	}
}

// BenchmarkFig9b_PowerGatingEDP regenerates Figure 9(b): normalized EDP as
// a fraction of the network is power-gated off.
func BenchmarkFig9b_PowerGatingEDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig9b(64, []string{"grep"}, []float64{0, 0.25}, 800, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Rows[1][1], "edp_gated25pct_vs_full")
	}
}

// BenchmarkFig10_Saturation regenerates Figure 10: saturation injection
// rates across designs under uniform random traffic.
func BenchmarkFig10_Saturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig10([]int{64}, []string{"uniform"},
			experiments.QuickSimScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		row := series[0].Rows[0]
		b.ReportMetric(row[1], "dm_sat_pct@64")
		b.ReportMetric(row[6], "sf_sat_pct@64")
	}
}

// BenchmarkFig10_SaturationHotspotTornado covers the remaining Figure 10
// panels (hotspot and tornado traffic).
func BenchmarkFig10_SaturationHotspotTornado(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig10([]int{64}, []string{"hotspot", "tornado"},
			experiments.QuickSimScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].Rows[0][6], "sf_hotspot_sat_pct")
		b.ReportMetric(series[1].Rows[0][6], "sf_tornado_sat_pct")
	}
}

// BenchmarkFig11_LatencyCurves regenerates Figure 11: latency versus
// injection rate per design.
func BenchmarkFig11_LatencyCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig11(64, "uniform", []float64{0.05, 0.20, 0.40},
			experiments.QuickSimScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Rows[0][6], "sf_ns@5pct")
		b.ReportMetric(s.Rows[2][6], "sf_ns@40pct")
	}
}

// BenchmarkFig12a_WorkloadThroughput regenerates Figure 12(a): normalized
// workload throughput versus DM, on a representative workload subset.
func BenchmarkFig12a_WorkloadThroughput(b *testing.B) {
	wc := experiments.WorkloadConfig{
		N: 64, Ops: 1200, Sockets: 4, Window: 16, Threads: 4,
		MaxCycles: 20_000_000, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		t, _, err := experiments.Fig12([]string{"grep", "redis"}, wc)
		if err != nil {
			b.Fatal(err)
		}
		geo := t.Rows[len(t.Rows)-1]
		b.ReportMetric(geo[3], "sf_vs_dm_geomean")
	}
}

// BenchmarkFig12b_WorkloadEnergy regenerates Figure 12(b): normalized
// dynamic memory energy versus AFB.
func BenchmarkFig12b_WorkloadEnergy(b *testing.B) {
	wc := experiments.WorkloadConfig{
		N: 64, Ops: 1200, Sockets: 4, Window: 16, Threads: 4,
		MaxCycles: 20_000_000, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		_, e, err := experiments.Fig12([]string{"grep", "redis"}, wc)
		if err != nil {
			b.Fatal(err)
		}
		geo := e.Rows[len(e.Rows)-1]
		b.ReportMetric(geo[3], "sf_vs_afb_geomean")
	}
}

// BenchmarkTable2_PortCounts regenerates Table II / Figure 8: router port
// requirements per design and scale.
func BenchmarkTable2_PortCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Table2([]int{256, 1024})
		if err != nil {
			b.Fatal(err)
		}
		for r, label := range s.Labels {
			if label == "fb" {
				b.ReportMetric(s.Rows[r][4], "fb_ports@1024")
			}
			if label == "sf" {
				b.ReportMetric(s.Rows[r][4], "sf_ports@1024")
			}
		}
	}
}

// BenchmarkBisection regenerates the Section V bisection-bandwidth
// methodology (random cuts + max-flow).
func BenchmarkBisection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Bisection([]int{64}, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Rows[0][2], "sf_bisection@64")
		b.ReportMetric(s.Rows[0][4], "odm_width@64")
	}
}

// BenchmarkAblationUniBidi measures the Section IV uni- vs bi-directional
// sensitivity study.
func BenchmarkAblationUniBidi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.AblationUniBidi([]int{64}, experiments.QuickSimScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Rows[0][1], "uni_path@64")
		b.ReportMetric(s.Rows[0][2], "bidi_path@64")
	}
}

// BenchmarkAblationLookahead measures the value of two-hop routing tables.
func BenchmarkAblationLookahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.AblationLookahead([]int{128}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Rows[0][1], "greedy_1hop@128")
		b.ReportMetric(s.Rows[0][2], "greedy_2hop@128")
		b.ReportMetric(s.Rows[0][3], "bfs_optimal@128")
	}
}

// BenchmarkAblationShortcuts measures shortcut healing after down-scaling.
func BenchmarkAblationShortcuts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.AblationShortcuts(128, []float64{0.3}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Rows[0][2], "sf_connected_pct")
		b.ReportMetric(s.Rows[0][4], "unhealed_connected_pct")
	}
}

// BenchmarkTopologyGeneration measures raw topology construction cost at
// the paper's maximum scale (1296 nodes).
func BenchmarkTopologyGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sf, err := topology.NewPaperSF(1296, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = sf.Graph()
	}
}

// BenchmarkGreedyRouting measures per-route decision cost on a 1296-node
// network (the compute side of the compute+table hybrid).
func BenchmarkGreedyRouting(b *testing.B) {
	net, err := New(WithNodes(1296), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 1296
		dst := (i*733 + 17) % 1296
		if src == dst {
			continue
		}
		if _, err := net.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconfiguration measures one gate-off/gate-on cycle including
// table updates on a 1296-node network.
func BenchmarkReconfiguration(b *testing.B) {
	net, err := New(WithNodes(1296), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 1 + i%1294
		if err := net.GateOff(v); err != nil {
			b.Fatal(err)
		}
		if err := net.GateOn(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorCycles measures raw simulator throughput
// (router-cycles per second) at 256 nodes under uniform load.
func BenchmarkSimulatorCycles(b *testing.B) {
	net, err := New(WithNodes(256), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	sess := net.NewSession(SessionConfig{Rate: 0.2, Warmup: 200, Measure: 800, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Run(SyntheticWorkload{Pattern: "uniform"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}

// sweepBenchPoints is the 8-point injection-rate grid shared by the sweep
// benchmarks below: compare BenchmarkSweepSerial against
// BenchmarkSweepParallel at -cpu 4 to see the worker-pool speedup (the
// parallel sweep is the same deterministic per-point computation fanned
// over GOMAXPROCS goroutines). Both report points/s; the parallel
// benchmark additionally measures a serial reference pass and reports
// the end-to-end speedup as a metric.
func sweepBenchPoints() []Point {
	return RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28, 0.32})
}

var sweepBenchCfg = SessionConfig{Warmup: 500, Measure: 2000, Seed: 1}

// sweepBenchSerialPass runs the serial reference loop once: the same
// per-point sessions and seeds as Sweep, one at a time.
func sweepBenchSerialPass(b *testing.B, net *Network, points []Point) {
	b.Helper()
	for j, p := range points {
		cfg := sweepBenchCfg
		cfg.Seed = PointSeed(sweepBenchCfg.Seed, j)
		cfg.Rate = p.Rate
		res, err := net.NewSession(cfg).Run(p.Workload)
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}

// BenchmarkSweepSerial is the serial reference loop.
func BenchmarkSweepSerial(b *testing.B) {
	net, err := New(WithNodes(64), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	points := sweepBenchPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepBenchSerialPass(b, net, points)
	}
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepParallel fans the same 8 points across GOMAXPROCS workers
// through the public Sweep API and reports the speedup over a serial
// reference pass measured in the same process. On a single-CPU host the
// comparison is meaningless (the pool degenerates to the serial loop), so
// it skips rather than report a misleading ~1.0x.
func BenchmarkSweepParallel(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("parallel sweep speedup needs GOMAXPROCS > 1 (run with -cpu 4)")
	}
	net, err := New(WithNodes(64), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	points := sweepBenchPoints()
	// Untimed serial baseline for the speedup metric.
	serialStart := time.Now()
	sweepBenchSerialPass(b, net, points)
	serialSec := time.Since(serialStart).Seconds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range net.SweepAll(sweepBenchCfg, points, 0) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.Deadlocked {
				b.Fatal("deadlock")
			}
		}
	}
	parallelSec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "points/s")
	if parallelSec > 0 {
		b.ReportMetric(serialSec/parallelSec, "speedup")
	}
}

// netsimStepBench drives the raw simulator one cycle per benchmark op on a
// String Figure network of n nodes at the given injection rate. Warmup fills
// the network to its steady state (queues at their high-water marks, the
// packet pool primed, flow histograms at their latency high-water), after
// which the core must run without heap allocations — allocs/op is reported
// and gated at 0 by bench_baseline.json, and cycles/s is the
// perf-trajectory headline. flowBuckets > 0 enables per-flow accounting
// (the BenchmarkNetsimStepFlow variant), pinning the accounting-on
// overhead next to the observability-off ceiling.
func netsimStepBench(b *testing.B, n int, rate float64, reference bool, flowBuckets int) {
	b.Helper()
	sf, err := topology.NewStringFigure(topology.Config{N: n, Ports: 4, Seed: 1, Shortcuts: true})
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.SFConfig(sf, 1)
	cfg.ReferenceCore = reference
	cfg.FlowBuckets = flowBuckets
	sim, err := netsim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", n)
	if err != nil {
		b.Fatal(err)
	}
	sim.SetPattern(rate, pat)
	sim.Run(3000)
	if sim.Results().Deadlocked {
		b.Fatal("deadlocked during warmup")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	if sim.Results().Deadlocked {
		b.Fatal("deadlocked during measurement")
	}
}

// netsimStepGrid is the benchmark load matrix. Rates are fixed fractions of
// each size's measured saturation rate (N=64: 0.025, N=256: 0.012, N=1024:
// 0.006 flits/node/cycle under uniform traffic): "low" is 5% of saturation —
// the flat region of the latency-load curve, where the event core's
// idle-router skipping dominates — and "mid" is 40%, below the knee but with
// most routers busy most cycles. Both reach a stable in-flight population,
// which allocs/op needs to be meaningful (an ever-growing source-queue
// backlog allocates forever on any core).
var netsimStepGrid = []struct {
	n    int
	load string
	rate float64
}{
	{64, "low", 0.00125}, {64, "mid", 0.01},
	{256, "low", 0.0006}, {256, "mid", 0.005},
	{1024, "low", 0.0003}, {1024, "mid", 0.0025},
}

// BenchmarkNetsimStep is the netsim hot-loop benchmark grid: cycles/s and
// allocs/op at N=64/256/1024 under low and mid uniform load. These are the
// numbers the event-driven core rewrite targets; benchgate holds cycles/s
// above the bench_baseline.json floors and allocs/op at 0.
func BenchmarkNetsimStep(b *testing.B) {
	for _, g := range netsimStepGrid {
		b.Run(fmt.Sprintf("N%d_%s", g.n, g.load), func(b *testing.B) {
			netsimStepBench(b, g.n, g.rate, false, 0)
		})
	}
}

// BenchmarkNetsimStepFlow is the N=64 mid-load grid point with per-flow
// accounting enabled (4×4 src/dst buckets, the sfexp default): the delta
// against NetsimStep/N64_mid is the observability overhead, and the
// allocs/op ceiling pins the accounting path allocation-free in steady
// state — the flow histograms live in a pre-carved arena that reaches its
// latency high-water mark during warmup.
func BenchmarkNetsimStepFlow(b *testing.B) {
	b.Run("N64_mid", func(b *testing.B) {
		netsimStepBench(b, 64, 0.01, false, 4)
	})
}

// BenchmarkNetsimStepScenario is the N=64 mid-load grid point with a rate
// schedule armed: every 1024 cycles the injection rate re-sets, alternating
// ±25% around the grid rate — the way a compiled diurnal or bursty scenario
// drives the core between Run slices. SetRate only restarts the geometric
// skip-sampling trial, so the scheduled path must hold the same 0 allocs/op
// ceiling as the unscheduled core; the cycles/s delta against
// NetsimStep/N64_mid is the cost of arming a scenario at all.
func BenchmarkNetsimStepScenario(b *testing.B) {
	b.Run("N64_mid", func(b *testing.B) {
		const n, rate = 64, 0.01
		sf, err := topology.NewStringFigure(topology.Config{N: n, Ports: 4, Seed: 1, Shortcuts: true})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := netsim.New(netsim.SFConfig(sf, 1))
		if err != nil {
			b.Fatal(err)
		}
		pat, err := traffic.NewPattern("uniform", n)
		if err != nil {
			b.Fatal(err)
		}
		sim.SetPattern(rate, pat)
		sim.Run(3000)
		if sim.Results().Deadlocked {
			b.Fatal("deadlocked during warmup")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				if i%2048 == 0 {
					sim.SetRate(rate * 0.75)
				} else {
					sim.SetRate(rate * 1.25)
				}
			}
			sim.Run(1)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		if sim.Results().Deadlocked {
			b.Fatal("deadlocked during measurement")
		}
	})
}

// BenchmarkNetsimStepRef runs the same N=1024 low-load point on the
// reference full-scan core: the ratio of NetsimStep/N1024_low to this
// number is the event-scheduling speedup (same injection scheme, same
// memory layout, full per-router scan instead of worklists) recorded in
// every BENCH_*.json. The pre-PR core was slower still — it also paid
// per-node injection draws and per-cycle allocations.
func BenchmarkNetsimStepRef(b *testing.B) {
	b.Run("N1024_low", func(b *testing.B) {
		netsimStepBench(b, 1024, 0.0003, true, 0)
	})
}

// BenchmarkTraceSession measures one closed-loop Figure 12 co-simulation
// through the public API (trace synthesis + DRAM-timed replay).
func BenchmarkTraceSession(b *testing.B) {
	net, err := New(WithNodes(64), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := SessionConfig{Ops: 800, Sockets: 2, Window: 8, Threads: 4,
		MaxCycles: 20_000_000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := net.NewSession(cfg).Run(TraceWorkload{Workload: "grep"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "ipc")
	}
}
