package stringfigure

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
)

// This file is the payload codec of distributed sweep execution: the
// serializable forms of a network spec, a sweep point and a session
// result that travel between the coordinator (Network.SweepDistributed)
// and remote workers (ServeWorker / cmd/sfworker) inside internal/dist
// frames. Everything is plain gob of exported fields, so local and
// remote runs see bit-identical float64 values.

// networkSpec is everything a worker needs to rebuild a Network: the
// deterministic design-build inputs plus the alive mask of the
// coordinator's network at sweep time. Design builds are pure functions
// of the spec (equal specs build identical designs), so rebuilding
// remotely reproduces the coordinator's topology exactly; a gated
// network is reproduced via SetMounted with the snapshotted mask.
type networkSpec struct {
	Design         string
	Nodes          int
	Ports          int
	Seed           int64
	Unidirectional bool
	NoShortcuts    bool
	Alive          []bool // nil when every node is powered on
}

// spec snapshots the network's rebuild inputs.
func (n *Network) spec() networkSpec {
	s := networkSpec{Design: n.d.Name, Nodes: n.d.N, Seed: n.d.Seed}
	if n.d.SF != nil {
		s.Ports = n.d.SF.Cfg.Ports
		// The wire-variant flags only exist for the sf design; s2 encodes
		// its no-shortcut bidirectional build in the kind itself.
		if n.d.Name == "sf" {
			s.Unidirectional = !n.d.SF.Cfg.Bidirectional
			s.NoShortcuts = !n.d.SF.Cfg.Shortcuts
		}
	}
	if n.net != nil {
		n.mu.RLock()
		alive := n.net.AliveSlice()
		n.mu.RUnlock()
		for _, a := range alive {
			if !a {
				s.Alive = alive
				break
			}
		}
	}
	return s
}

// build deploys the spec into a fresh Network.
func (s networkSpec) build() (*Network, error) {
	net, err := newFromOptions(Options{
		Design:         s.Design,
		Nodes:          s.Nodes,
		Ports:          s.Ports,
		Seed:           s.Seed,
		Unidirectional: s.Unidirectional,
		NoShortcuts:    s.NoShortcuts,
	})
	if err != nil {
		return nil, err
	}
	if s.Alive != nil {
		if err := net.SetMounted(s.Alive); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// key is a canonical cache key for worker-side network reuse.
func (s networkSpec) key() string {
	alive := ""
	if s.Alive != nil {
		mask := make([]byte, len(s.Alive))
		for i, a := range s.Alive {
			mask[i] = '0'
			if a {
				mask[i] = '1'
			}
		}
		alive = string(mask)
	}
	return fmt.Sprintf("%s/%d/%d/%d/%t/%t/%s",
		s.Design, s.Nodes, s.Ports, s.Seed, s.Unidirectional, s.NoShortcuts, alive)
}

// Wire workload kinds. FuncWorkload carries arbitrary Go functions and
// cannot travel; SweepDistributed runs such points in-process instead.
const (
	wireSynthetic = "synthetic"
	wireTrace     = "trace"
)

// wirePoint is a Point in serializable form.
type wirePoint struct {
	Kind string
	Name string
	Rate float64
	Seed int64
}

// pointToWire converts a sweep point for transport. ok is false for
// workloads that cannot be serialized (FuncWorkload and external
// implementations), which the coordinator keeps in-process.
func pointToWire(p Point) (wirePoint, bool) {
	switch w := p.Workload.(type) {
	case SyntheticWorkload:
		return wirePoint{Kind: wireSynthetic, Name: w.Pattern, Rate: p.Rate, Seed: p.Seed}, true
	case TraceWorkload:
		return wirePoint{Kind: wireTrace, Name: w.Workload, Rate: p.Rate, Seed: p.Seed}, true
	}
	return wirePoint{}, false
}

// point reconstructs the sweep point on the worker.
func (wp wirePoint) point() (Point, error) {
	switch wp.Kind {
	case wireSynthetic:
		return Point{Workload: SyntheticWorkload{Pattern: wp.Name}, Rate: wp.Rate, Seed: wp.Seed}, nil
	case wireTrace:
		return Point{Workload: TraceWorkload{Workload: wp.Name}, Rate: wp.Rate, Seed: wp.Seed}, nil
	}
	return Point{}, fmt.Errorf("stringfigure: unknown wire workload kind %q", wp.Kind)
}

// wireSessionConfig is SessionConfig in serializable form: an explicit
// field-for-field mirror rather than the struct itself, so that adding a
// public knob without plumbing it over the wire is a visible gap here —
// the simlint wire-parity gate diffs the two structs and fails the build
// until the new field appears in the mirror and in both conversions.
// The unexported onTelemetry sink deliberately has no counterpart: sinks
// cannot travel, wireJob.Telemetry stands in for them.
type wireSessionConfig struct {
	Rate              float64
	Warmup, Measure   int64
	PacketFlits       int
	AdaptiveThreshold float64
	Seed              int64
	Ops               int
	Sockets           int
	Window            int
	Threads           int
	MaxCycles         int64
	TelemetryEvery    int64
	FlowBuckets       int
	TraceSampleEvery  int64
	Gates             []GateEvent
	Scenario          []ScenarioSpec
	ReferenceCore     bool
}

// cfgToWire converts a session config for transport.
func cfgToWire(c SessionConfig) wireSessionConfig {
	return wireSessionConfig{
		Rate:              c.Rate,
		Warmup:            c.Warmup,
		Measure:           c.Measure,
		PacketFlits:       c.PacketFlits,
		AdaptiveThreshold: c.AdaptiveThreshold,
		Seed:              c.Seed,
		Ops:               c.Ops,
		Sockets:           c.Sockets,
		Window:            c.Window,
		Threads:           c.Threads,
		MaxCycles:         c.MaxCycles,
		TelemetryEvery:    c.TelemetryEvery,
		FlowBuckets:       c.FlowBuckets,
		TraceSampleEvery:  c.TraceSampleEvery,
		Gates:             c.Gates,
		Scenario:          c.Scenario,
		ReferenceCore:     c.ReferenceCore,
	}
}

// cfg reconstructs the session config on the worker.
func (w wireSessionConfig) cfg() SessionConfig {
	return SessionConfig{
		Rate:              w.Rate,
		Warmup:            w.Warmup,
		Measure:           w.Measure,
		PacketFlits:       w.PacketFlits,
		AdaptiveThreshold: w.AdaptiveThreshold,
		Seed:              w.Seed,
		Ops:               w.Ops,
		Sockets:           w.Sockets,
		Window:            w.Window,
		Threads:           w.Threads,
		MaxCycles:         w.MaxCycles,
		TelemetryEvery:    w.TelemetryEvery,
		FlowBuckets:       w.FlowBuckets,
		TraceSampleEvery:  w.TraceSampleEvery,
		Gates:             w.Gates,
		Scenario:          w.Scenario,
		ReferenceCore:     w.ReferenceCore,
	}
}

// wireJob is one dispatched sweep point: the network to rebuild, the
// sweep's base session config, and the point with its global index (the
// PointSeed input, so remote seeds match the in-process pool exactly).
// Telemetry asks the worker to stream the point's interval snapshots back
// over the wire — the sink itself is a Go function and cannot travel, so
// the flag stands in for it (the worker attaches its own batching sink,
// which is determinism-neutral: Results are bit-identical either way).
type wireJob struct {
	Spec      networkSpec
	Cfg       wireSessionConfig
	Index     int
	Point     wirePoint
	Telemetry bool
}

// wireSnapshotBatch is the payload of one dist snapshot frame: a batch of
// consecutive interval records of a single sweep point, already stamped
// with the run's identity (workload, rate, seed, point index) by the
// worker's session layer. Workers flush a batch every snapshotBatchMax
// intervals and once more when the point's run ends, so batching bounds
// per-snapshot wire overhead without reordering or dropping records.
type wireSnapshotBatch struct {
	Snaps []TelemetrySnapshot
}

// snapshotBatchMax caps how many interval records ride in one snapshot
// frame. Small enough to keep remote streams live (a batch at the default
// 1000-cycle interval spans 16k simulated cycles), large enough that the
// frame overhead stays negligible next to the simulation work.
const snapshotBatchMax = 16

// wireResult is a Result in serializable form: the Err field (an
// interface, excluded from transport) travels as text. Well-known
// context errors are restored as their canonical values so errors.Is
// keeps working across the wire; other errors arrive as opaque strings.
type wireResult struct {
	Res    Result
	ErrMsg string
}

func resultToWire(r Result) wireResult {
	wr := wireResult{Res: r}
	if r.Err != nil {
		wr.ErrMsg = r.Err.Error()
		wr.Res.Err = nil
	}
	return wr
}

func (wr wireResult) result() Result {
	r := wr.Res
	switch wr.ErrMsg {
	case "":
	case context.Canceled.Error():
		r.Err = context.Canceled
	case context.DeadlineExceeded.Error():
		r.Err = context.DeadlineExceeded
	default:
		r.Err = errors.New(wr.ErrMsg)
	}
	return r
}

// encodeWire gob-encodes one wire value.
func encodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeWire gob-decodes one wire value.
func decodeWire(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
