package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/traffic"
)

// uniformPattern adapts a traffic pattern for SetPattern.
func uniformPattern(t *testing.T, n int) func(src int, rng *rand.Rand) (int, bool) {
	t.Helper()
	pat, err := traffic.NewPattern("uniform", n)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

func TestSnapshotCadenceAndDeltas(t *testing.T) {
	sf, s := sfSim(t, 16, 4, 3)
	var snaps []Snapshot
	s.cfg.SnapshotEvery = 500
	s.cfg.OnSnapshot = func(sn Snapshot) { snaps = append(snaps, sn) }
	s.SetPattern(0.1, uniformPattern(t, sf.Cfg.N))
	s.Run(1000)
	s.ResetStats()
	s.Run(2000)
	res := s.Results()

	if len(snaps) != 6 {
		t.Fatalf("snapshots = %d, want 6 (2 warmup + 4 measured)", len(snaps))
	}
	var injected, delivered int64
	for i, sn := range snaps {
		if sn.Cycle != int64(i+1)*500 {
			t.Errorf("snapshot %d at cycle %d, want %d", i, sn.Cycle, (i+1)*500)
		}
		if sn.IntervalCycles != 500 {
			t.Errorf("snapshot %d interval = %d, want 500", i, sn.IntervalCycles)
		}
		if i >= 2 { // post-reset snapshots sum to the measured window
			injected += sn.Injected
			delivered += sn.Delivered
		}
		if sn.Delivered > 0 && (sn.AvgLatencyCycles <= 0 || sn.P90LatencyCycles <= 0) {
			t.Errorf("snapshot %d has deliveries but zero latency: %+v", i, sn)
		}
		if sn.Delivered > 0 && float64(sn.P90LatencyCycles) < sn.AvgLatencyCycles/4 {
			t.Errorf("snapshot %d P90 implausibly below mean: %+v", i, sn)
		}
	}
	if injected != res.Injected {
		t.Errorf("interval injections sum to %d, cumulative %d", injected, res.Injected)
	}
	if delivered != res.Delivered {
		t.Errorf("interval deliveries sum to %d, cumulative %d", delivered, res.Delivered)
	}
}

func TestSnapshotProbeDoesNotPerturbResults(t *testing.T) {
	run := func(every int64) Results {
		sf, s := sfSim(t, 16, 4, 7)
		if every > 0 {
			s.cfg.SnapshotEvery = every
			s.cfg.OnSnapshot = func(Snapshot) {}
		}
		s.SetPattern(0.15, uniformPattern(t, sf.Cfg.N))
		return s.RunMeasured(500, 1500)
	}
	plain, probed := run(0), run(250)
	if !reflect.DeepEqual(plain, probed) {
		t.Errorf("snapshot probe perturbed results:\nplain:  %+v\nprobed: %+v", plain, probed)
	}
}
