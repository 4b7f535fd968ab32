package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// lineSim builds a 3-node bidirectional line 0-1-2 with a trivial
// shortest-path table router (acyclic, so the default escape is sound).
func lineSim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	out := [][]int{{1}, {0, 2}, {1}}
	cfg.Out = out
	cfg.Alg = routing.NewTableRouter("line", out)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sfSim builds a String Figure simulator with the paper's full policy stack
// (bidirectional S2-style construction).
func sfSim(t *testing.T, n, ports int, seed int64) (*topology.StringFigure, *Sim) {
	t.Helper()
	sf, err := topology.NewStringFigure(topology.Config{
		N: n, Ports: ports, Seed: seed, Shortcuts: true, Bidirectional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SFConfig(sf, seed+100)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sf, s
}

func TestSinglePacketLatency(t *testing.T) {
	s := lineSim(t, Config{PacketFlits: 4, Seed: 1})
	s.SetTrace([]TraceEvent{{Cycle: 0, Src: 0, Dst: 2}})
	s.Run(100)
	res := s.Results()
	if res.Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", res.Delivered)
	}
	if res.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", res.Injected)
	}
	// 2 hops, 4 flits; latency must cover at least the serialization plus
	// two link traversals at the default 2-cycle latency.
	lat := res.AvgLatencyCycles()
	if lat < 8 || lat > 40 {
		t.Errorf("latency = %v cycles, outside sane window [8,40]", lat)
	}
	if got := res.HopHist.Mean(); got != 2 {
		t.Errorf("hops = %v, want 2", got)
	}
	if res.FlitsDelivered != 4 {
		t.Errorf("FlitsDelivered = %d, want 4", res.FlitsDelivered)
	}
	if res.FlitHops != 8 {
		t.Errorf("FlitHops = %d, want 8 (4 flits x 2 hops)", res.FlitHops)
	}
}

func TestSelfAndInvalidTraceEventsSkipped(t *testing.T) {
	s := lineSim(t, Config{Seed: 1})
	s.SetTrace([]TraceEvent{
		{Cycle: 0, Src: 1, Dst: 1},  // self
		{Cycle: 0, Src: -1, Dst: 2}, // bad src
		{Cycle: 0, Src: 0, Dst: 99}, // bad dst
		{Cycle: 1, Src: 0, Dst: 1},  // valid
	})
	s.Run(50)
	res := s.Results()
	if res.Injected != 1 || res.Delivered != 1 {
		t.Errorf("Injected/Delivered = %d/%d, want 1/1", res.Injected, res.Delivered)
	}
}

func TestConservationOfFlits(t *testing.T) {
	// Injected flits = delivered flits + in-flight flits (no loss, no
	// duplication) under random uniform traffic.
	_, s := sfSim(t, 32, 4, 3)
	pat, err := traffic.NewPattern("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPattern(0.1, pat)
	s.Run(2000)
	res := s.Results()
	if res.Deadlocked {
		t.Fatal("deadlock under light uniform load")
	}
	if res.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 on an intact network", res.Dropped)
	}
	wantFlits := res.Injected * int64(s.cfg.PacketFlits)
	gotFlits := res.FlitsDelivered + int64(res.InFlight)
	if wantFlits != gotFlits {
		t.Errorf("flit conservation violated: injected %d flits, delivered+inflight %d",
			wantFlits, gotFlits)
	}
	if res.Delivered == 0 {
		t.Error("no packets delivered")
	}
}

func TestDrainAfterInjectionStops(t *testing.T) {
	_, s := sfSim(t, 24, 4, 5)
	pat, _ := traffic.NewPattern("uniform", 24)
	s.SetPattern(0.2, pat)
	s.Run(500)
	s.SetPattern(0, pat) // stop injecting
	s.Run(10000)
	res := s.Results()
	if res.InFlight != 0 {
		t.Errorf("network did not drain: %d flits in flight", res.InFlight)
	}
	if res.Injected != res.Delivered+res.Dropped {
		t.Errorf("injected %d != delivered %d + dropped %d after drain",
			res.Injected, res.Delivered, res.Dropped)
	}
	if res.Dropped != 0 {
		t.Errorf("Dropped = %d on an intact network", res.Dropped)
	}
}

func TestHighLoadDrains(t *testing.T) {
	// Beyond-saturation load must still drain once injection stops: the
	// escape subnetwork guarantees forward progress.
	_, s := sfSim(t, 32, 4, 11)
	pat, _ := traffic.NewPattern("uniform", 32)
	s.SetPattern(0.9, pat)
	s.Run(1500)
	s.SetPattern(0, pat)
	s.Run(60000)
	res := s.Results()
	if res.Deadlocked {
		t.Fatal("deadlocked under post-saturation drain")
	}
	if res.InFlight != 0 {
		t.Errorf("network did not drain: %d flits in flight", res.InFlight)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 64, Ports: 4, Seed: 9, Shortcuts: true, Bidirectional: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(rate float64) float64 {
		s, err := New(SFConfig(sf, 4))
		if err != nil {
			t.Fatal(err)
		}
		pat, _ := traffic.NewPattern("uniform", 64)
		s.SetPattern(rate, pat)
		res := s.RunMeasured(1000, 3000)
		if res.Deadlocked {
			t.Fatalf("deadlock at rate %v", rate)
		}
		if res.Delivered == 0 {
			t.Fatalf("nothing delivered at rate %v", rate)
		}
		return res.AvgLatencyCycles()
	}
	low := run(0.02)
	high := run(0.30)
	if high <= low {
		t.Errorf("latency at 30%% load (%v) not above 2%% load (%v)", high, low)
	}
}

func TestVCOwnershipNoInterleaving(t *testing.T) {
	// Heavy contention toward one node must still deliver exactly the
	// injected packets: flit interleaving corruption would break delivery
	// counts or hang.
	out := [][]int{{2}, {2}, {0, 1, 3}, {2}}
	alg := routing.NewTableRouter("star", out)
	s, err := New(Config{Out: out, Alg: alg, PacketFlits: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var evs []TraceEvent
	for c := int64(0); c < 50; c++ {
		evs = append(evs, TraceEvent{Cycle: c, Src: 0, Dst: 3}, TraceEvent{Cycle: c, Src: 1, Dst: 3})
	}
	s.SetTrace(evs)
	s.Run(5000)
	res := s.Results()
	if res.Delivered != 100 {
		t.Errorf("Delivered = %d, want 100", res.Delivered)
	}
	if res.InFlight != 0 {
		t.Errorf("InFlight = %d after drain", res.InFlight)
	}
}

func TestDeadlockFreedomUnderStress(t *testing.T) {
	// Sustained over-saturation load on the full uni-directional String
	// Figure topology must keep making progress.
	_, s := sfSim(t, 61, 4, 13)
	pat, _ := traffic.NewPattern("uniform", 61)
	s.SetPattern(0.9, pat)
	s.Run(8000)
	res := s.Results()
	if res.Deadlocked {
		t.Fatal("deadlock under saturating uniform load")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under saturating load")
	}
}

func TestTornadoAndHotspotProgress(t *testing.T) {
	for _, name := range []string{"tornado", "hotspot", "complement", "opposite", "neighbor", "partition2"} {
		_, s := sfSim(t, 32, 4, 21)
		pat, err := traffic.NewPattern(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		s.SetPattern(0.3, pat)
		res := s.RunMeasured(1000, 3000)
		if res.Deadlocked {
			t.Errorf("%s: deadlocked", name)
		}
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
	}
}

func TestAdaptiveRoutingNotWorse(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 64, Ports: 8, Seed: 21, Shortcuts: true, Bidirectional: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode AdaptiveMode) Results {
		cfg := SFConfig(sf, 5)
		cfg.Adaptive = mode
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pat, _ := traffic.NewPattern("uniform", 64)
		s.SetPattern(0.45, pat)
		return s.RunMeasured(1500, 4000)
	}
	off := run(AdaptiveOff)
	on := run(AdaptiveFirstHop)
	if off.Deadlocked || on.Deadlocked {
		t.Fatal("deadlock in adaptive comparison")
	}
	if on.Delivered == 0 {
		t.Fatal("adaptive run delivered nothing")
	}
	// Allow 25% tolerance: the property is "not catastrophically worse".
	if on.AvgLatencyCycles() > off.AvgLatencyCycles()*1.25 {
		t.Errorf("adaptive latency %.1f much worse than oblivious %.1f",
			on.AvgLatencyCycles(), off.AvgLatencyCycles())
	}
}

func TestLinkLatencyFunction(t *testing.T) {
	calls := 0
	s := lineSim(t, Config{
		PacketFlits: 1,
		LinkLatency: func(u, v int) int { calls++; return 10 },
		Seed:        1,
	})
	s.SetTrace([]TraceEvent{{Cycle: 0, Src: 0, Dst: 2}})
	s.Run(200)
	res := s.Results()
	if res.Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", res.Delivered)
	}
	if calls == 0 {
		t.Error("LinkLatency function never consulted")
	}
	if res.AvgLatencyCycles() < 20 {
		t.Errorf("latency %v does not reflect 10-cycle links over 2 hops", res.AvgLatencyCycles())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := New(Config{Out: [][]int{{1}, {0}}}); err == nil {
		t.Error("missing algorithm should fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Out: [][]int{{1}, {0}}, Alg: routing.NewTableRouter("x", [][]int{{1}, {0}})}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.EscapeVCs != 1 || cfg.VCs != 3 {
		t.Errorf("defaults EscapeVCs=%d VCs=%d, want 1/3", cfg.EscapeVCs, cfg.VCs)
	}
	if cfg.PacketFlits != 5 || cfg.BufFlits != 8 {
		t.Errorf("defaults PacketFlits=%d BufFlits=%d, want 5/8", cfg.PacketFlits, cfg.BufFlits)
	}
	if cfg.AdaptiveThreshold != 0.5 {
		t.Errorf("default threshold %v, want 0.5", cfg.AdaptiveThreshold)
	}
}

func TestMeshSimulation(t *testing.T) {
	m, err := topology.NewMesh(16)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, 16)
	g := m.Graph()
	for v := 0; v < 16; v++ {
		out[v] = g.UniqueOutNeighbors(v)
	}
	s, err := New(Config{
		Out:      out,
		Alg:      &routing.MeshRouter{Mesh: m},
		Adaptive: AdaptiveEveryHop,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := traffic.NewPattern("uniform", 16)
	s.SetPattern(0.15, pat)
	res := s.RunMeasured(500, 2000)
	if res.Deadlocked {
		t.Fatal("mesh deadlocked")
	}
	if res.Delivered == 0 {
		t.Fatal("mesh delivered nothing")
	}
}

func TestResetStatsKeepsNetworkState(t *testing.T) {
	s := lineSim(t, Config{Seed: 1})
	pat := func(src int, rng *rand.Rand) (int, bool) { return (src + 1) % 3, true }
	s.SetPattern(0.5, pat)
	s.Run(100)
	before := s.Results()
	if before.Delivered == 0 {
		t.Fatal("nothing delivered before reset")
	}
	s.ResetStats()
	mid := s.Results()
	if mid.Delivered != 0 || mid.Injected != 0 {
		t.Error("ResetStats did not clear counters")
	}
	s.Run(100)
	if s.Results().Delivered == 0 {
		t.Error("simulation did not continue after reset")
	}
}

func TestRingEscapeFollowsActiveRing(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 20, Ports: 4, Seed: 8, Shortcuts: true, Bidirectional: true})
	if err != nil {
		t.Fatal(err)
	}
	esc := RingEscape(sf, nil)
	// Walking the escape function from any node must reach any destination
	// within N hops and every hop must be a real link.
	g := sf.Graph()
	for src := 0; src < 20; src++ {
		for dst := 0; dst < 20; dst++ {
			if src == dst {
				continue
			}
			cur := src
			prevVC := -1
			for steps := 0; cur != dst; steps++ {
				if steps > 20 {
					t.Fatalf("escape route %d->%d did not converge", src, dst)
				}
				next, vc := esc(cur, dst)
				if !g.HasEdge(cur, next) {
					t.Fatalf("escape hop %d->%d is not a link", cur, next)
				}
				if vc != 0 && vc != 1 {
					t.Fatalf("escape VC %d out of range", vc)
				}
				// Dateline discipline: VC transitions only 0 -> 1.
				if prevVC == 1 && vc == 0 {
					t.Fatalf("escape VC went back from 1 to 0 on %d->%d", src, dst)
				}
				prevVC = vc
				cur = next
			}
		}
	}
}

func TestEscapeUnderReconfigMask(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 20, Ports: 4, Seed: 8, Shortcuts: true, Bidirectional: true})
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, 20)
	for i := range alive {
		alive[i] = i != 5 && i != 6
	}
	esc := RingEscape(sf, alive)
	for src := 0; src < 20; src++ {
		if !alive[src] {
			continue
		}
		for dst := 0; dst < 20; dst++ {
			if src == dst || !alive[dst] {
				continue
			}
			cur := src
			for steps := 0; cur != dst; steps++ {
				if steps > 20 {
					t.Fatalf("escape %d->%d did not converge with dead nodes", src, dst)
				}
				next, _ := esc(cur, dst)
				if !alive[next] {
					t.Fatalf("escape routed through dead node %d", next)
				}
				cur = next
			}
		}
	}
}
