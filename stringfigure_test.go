package stringfigure

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/routing"
)

func TestNewDefaults(t *testing.T) {
	net, err := New(WithNodes(64))
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes() != 64 || net.Ports() != 4 || net.Spaces() != 2 {
		t.Errorf("defaults: nodes=%d ports=%d spaces=%d", net.Nodes(), net.Ports(), net.Spaces())
	}
	net2, err := New(WithNodes(256))
	if err != nil {
		t.Fatal(err)
	}
	if net2.Ports() != 8 {
		t.Errorf("256-node default ports = %d, want 8", net2.Ports())
	}
	if _, err := New(); err == nil {
		t.Error("Nodes required")
	}
}

func TestRouteAndMD(t *testing.T) {
	net, err := New(WithNodes(40), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	path, err := net.Route(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 31 {
		t.Errorf("path endpoints wrong: %v", path)
	}
	// MD strictly decreases along the path.
	prev := net.MD(0, 31)
	for _, v := range path[1:] {
		cur := net.MD(v, 31)
		if cur >= prev {
			t.Fatalf("MD did not decrease at %d", v)
		}
		prev = cur
	}
}

func TestCoordinatesExposed(t *testing.T) {
	net, _ := New(WithNodes(16), WithSeed(1))
	for s := 0; s < net.Spaces(); s++ {
		c := net.Coordinate(s, 5)
		if c < 0 || c >= 1 {
			t.Errorf("coordinate out of range: %v", c)
		}
	}
}

func TestBoundsChecked(t *testing.T) {
	net, _ := New(WithNodes(16), WithSeed(1))
	// Out-of-range topology queries return zero values instead of panicking
	// through internal slices.
	for _, probe := range [][2]int{{-1, 3}, {9, 3}, {0, -1}, {0, 16}} {
		if c := net.Coordinate(probe[0], probe[1]); c != 0 {
			t.Errorf("Coordinate(%d,%d) = %v, want 0", probe[0], probe[1], c)
		}
	}
	if md := net.MD(-1, 5); md != 0 {
		t.Errorf("MD(-1,5) = %v, want 0", md)
	}
	if md := net.MD(5, 99); md != 0 {
		t.Errorf("MD(5,99) = %v, want 0", md)
	}
	if out := net.OutNeighbors(-3); out != nil {
		t.Errorf("OutNeighbors(-3) = %v, want nil", out)
	}
	if net.Alive(16) || net.Alive(-1) {
		t.Error("Alive out of range should be false")
	}
	if _, err := net.Route(-1, 5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Route(-1,5) err = %v, want ErrOutOfRange", err)
	}
	if _, err := net.Route(0, 16); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Route(0,16) err = %v, want ErrOutOfRange", err)
	}
	if err := net.GateOff(99); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("GateOff(99) err = %v, want ErrOutOfRange", err)
	}
	if err := net.GateOn(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("GateOn(-1) err = %v, want ErrOutOfRange", err)
	}
}

func TestTypedErrors(t *testing.T) {
	net, _ := New(WithNodes(30), WithSeed(7))
	if err := net.GateOff(5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Route(5, 10); !errors.Is(err, ErrNodeDead) {
		t.Errorf("route from dead node err = %v, want ErrNodeDead", err)
	}
	if _, err := net.Route(10, 5); !errors.Is(err, ErrNodeDead) {
		t.Errorf("route to dead node err = %v, want ErrNodeDead", err)
	}
	bogus := net.NewSession(SessionConfig{Rate: 0.1, Warmup: 10, Measure: 10})
	if _, err := bogus.Run(SyntheticWorkload{Pattern: "bogus"}); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("bogus pattern err = %v, want ErrUnknownPattern", err)
	}
	sess := net.NewSession(SessionConfig{Ops: 200})
	if _, err := sess.Run(TraceWorkload{Workload: "bogus"}); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("bogus workload err = %v, want ErrUnknownPattern", err)
	}
	// ErrNotRoutable is only reachable mid-reconfiguration on real
	// hardware; emulate the transient by blanking one routing table.
	net.net.Router.Tables[10] = routing.NewTable(10)
	if _, err := net.Route(10, 20); !errors.Is(err, ErrNotRoutable) {
		t.Errorf("unroutable err = %v, want ErrNotRoutable", err)
	}
}

func TestElasticScaling(t *testing.T) {
	net, err := New(WithNodes(30), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.GateOff(5); err != nil {
		t.Fatal(err)
	}
	if net.Alive(5) || net.AliveCount() != 29 {
		t.Error("gate off not applied")
	}
	if _, err := net.Route(5, 10); err == nil {
		t.Error("routing from a dead node should fail")
	}
	if _, err := net.Route(0, 10); err != nil {
		t.Errorf("routing among alive nodes failed: %v", err)
	}
	if err := net.GateOn(5); err != nil {
		t.Fatal(err)
	}
	st := net.ReconfigStats()
	if st.Reconfigs != 2 {
		t.Errorf("Reconfigs = %d, want 2", st.Reconfigs)
	}

	mounted := make([]bool, 30)
	for i := 0; i < 20; i++ {
		mounted[i] = true
	}
	if err := net.SetMounted(mounted); err != nil {
		t.Fatal(err)
	}
	if net.AliveCount() != 20 {
		t.Errorf("AliveCount = %d, want 20", net.AliveCount())
	}
}

func TestPathLengths(t *testing.T) {
	net, _ := New(WithNodes(100), WithSeed(3))
	st := net.PathLengths(20)
	if st.Mean <= 0 || st.P90 < st.P10 || st.Diameter < st.P90 {
		t.Errorf("inconsistent path stats: %+v", st)
	}
}

func TestSimulateUniform(t *testing.T) {
	net, _ := New(WithNodes(32), WithSeed(4))
	sess := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1200, Seed: 5})
	res, err := sess.Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlocked at 5% load")
	}
	if res.Delivered == 0 || res.AvgLatencyNs <= 0 || res.AvgHops <= 0 {
		t.Errorf("bad results: %+v", res)
	}
	if res.P90LatencyNs < res.AvgLatencyNs/2 {
		t.Errorf("P90 (%v) implausibly below mean (%v)", res.P90LatencyNs, res.AvgLatencyNs)
	}
	if res.NetworkEnergyPJ <= 0 {
		t.Errorf("network energy not accounted: %+v", res)
	}
}

func TestSimulateAfterGating(t *testing.T) {
	net, _ := New(WithNodes(32), WithSeed(5))
	for _, v := range []int{3, 9, 21} {
		if err := net.GateOff(v); err != nil {
			t.Fatal(err)
		}
	}
	sess := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1200, Seed: 6})
	res, err := sess.Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Delivered == 0 {
		t.Errorf("gated network unusable: %+v", res)
	}
}

func TestUnidirectionalVariant(t *testing.T) {
	net, err := New(WithNodes(40), WithSeed(6), Unidirectional())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Route(1, 30); err != nil {
		t.Errorf("uni-directional routing failed: %v", err)
	}
}

func TestSaturationRateSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	net, _ := New(WithNodes(16), WithSeed(1))
	sat, err := net.Saturation(SyntheticWorkload{Pattern: "uniform"},
		SessionConfig{Seed: 2}, SaturationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 || sat > 1 {
		t.Errorf("saturation = %v", sat)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	orig, err := New(WithNodes(36), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Nodes() != 36 || reopened.Ports() != orig.Ports() {
		t.Errorf("reopened network differs: %d nodes %d ports", reopened.Nodes(), reopened.Ports())
	}
	// Routing behaves identically.
	p1, err1 := orig.Route(2, 30)
	p2, err2 := reopened.Route(2, 30)
	if err1 != nil || err2 != nil {
		t.Fatalf("routing failed: %v %v", err1, err2)
	}
	if len(p1) != len(p2) {
		t.Errorf("paths differ: %v vs %v", p1, p2)
	}
	// And the reopened design supports elastic scaling.
	if err := reopened.GateOff(5); err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Route(2, 30); err != nil {
		t.Errorf("routing after gating on reopened design: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(strings.NewReader("not a design")); err == nil {
		t.Error("Open should reject garbage")
	}
}
