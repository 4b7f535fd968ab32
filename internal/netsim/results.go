package netsim

import (
	"repro/internal/stats"
)

// Results aggregates the metrics of one simulation window.
type Results struct {
	Nodes  int
	Cycles int64

	Injected       int64 // packets offered to source queues
	Delivered      int64 // packets fully ejected
	Dropped        int64 // packets dropped as unroutable (reconfig windows)
	Escaped        int64 // escape-subnetwork diversions (deadlock pressure)
	FlitsDelivered int64
	FlitHops       int64 // total flit link traversals (energy proxy)
	InFlight       int   // flits still inside at snapshot time

	LatencySum       float64
	LatencyHist      stats.Histogram // packet latency in cycles
	HopHist          stats.Histogram // per-packet hop counts
	MinInjectLatency int64
	Deadlocked       bool
}

// AvgLatencyCycles returns the mean packet latency in cycles.
func (r Results) AvgLatencyCycles() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return r.LatencySum / float64(r.Delivered)
}

// AvgLatencyNs returns the mean packet latency in nanoseconds at the 312.5
// MHz network clock.
func (r Results) AvgLatencyNs() float64 { return r.AvgLatencyCycles() * CycleNs }

// AvgHops returns the mean hop count of delivered packets.
func (r Results) AvgHops() float64 { return r.HopHist.Mean() }

// ThroughputFlitsPerNodeCycle returns delivered flits per node per cycle.
func (r Results) ThroughputFlitsPerNodeCycle() float64 {
	if r.Cycles == 0 || r.Nodes == 0 {
		return 0
	}
	return float64(r.FlitsDelivered) / float64(r.Cycles) / float64(r.Nodes)
}

// DeliveredFraction returns delivered/injected packets for the window.
func (r Results) DeliveredFraction() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Injected)
}

// RunMeasured runs warmup cycles, clears statistics, then runs measure
// cycles and returns the measured-window results.
func (s *Sim) RunMeasured(warmup, measure int64) Results {
	s.Run(warmup)
	s.ResetStats()
	s.Run(measure)
	return s.Results()
}
