package stringfigure

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/trace"
	"repro/internal/traffic"
)

// Workload is one unit of traffic a Session can run: synthetic open-loop
// patterns (SyntheticWorkload, FuncWorkload) or closed-loop trace-driven
// memory co-simulation (TraceWorkload). The run method is unexported so the
// set of execution engines stays inside the package; user-defined traffic
// plugs in through FuncWorkload's destination function.
type Workload interface {
	// Name identifies the workload in Results and logs.
	Name() string
	run(ctx context.Context, s *Session) (Result, error)
}

// SyntheticWorkload injects one of the Table III synthetic traffic patterns
// ("uniform", "tornado", "hotspot", "opposite", "neighbor", "complement",
// "partition2") open-loop at the session's injection rate. Patterns draw
// memory-node destinations; on concentrated designs the traffic travels
// between the hosting routers.
type SyntheticWorkload struct {
	Pattern string
}

// Name implements Workload.
func (w SyntheticWorkload) Name() string { return w.Pattern }

func (w SyntheticWorkload) run(ctx context.Context, s *Session) (Result, error) {
	pat, err := traffic.NewPattern(w.Pattern, s.net.Nodes())
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrUnknownPattern, err)
	}
	return s.net.runOpenLoop(ctx, s.cfg, w.Pattern, pat)
}

// Patterns lists the supported SyntheticWorkload pattern names in Table III
// order.
func Patterns() []string { return append([]string(nil), traffic.PatternNames...) }

// FuncWorkload is a user-pluggable synthetic workload: Dest maps a source
// node to a destination each injection opportunity (ok=false skips, e.g.
// for self-addressed traffic). The session's alive-node filtering still
// applies on top, so Dest needs no liveness awareness.
type FuncWorkload struct {
	// Label names the workload in Results (default "func").
	Label string
	// Dest picks the destination for a packet injected at src.
	Dest func(src int, rng *rand.Rand) (dst int, ok bool)
}

// Name implements Workload.
func (w FuncWorkload) Name() string {
	if w.Label == "" {
		return "func"
	}
	return w.Label
}

func (w FuncWorkload) run(ctx context.Context, s *Session) (Result, error) {
	if w.Dest == nil {
		return Result{}, fmt.Errorf("stringfigure: FuncWorkload.Dest required")
	}
	return s.net.runOpenLoop(ctx, s.cfg, "", traffic.Pattern(w.Dest))
}

// TraceWorkload replays one of the Table IV real workloads ("wordcount",
// "grep", "sort", "pagerank", "redis", "memcached", "kmeans", "matmul")
// closed-loop: per-socket traces synthesized through the paper's cache
// hierarchy drive read/write packets against DRAM-timed memory nodes, and
// replay stalls when a socket's outstanding-read window fills — the Figure
// 12 pipeline behind IPC and memory-energy results.
type TraceWorkload struct {
	Workload string
}

// Name implements Workload.
func (w TraceWorkload) Name() string { return w.Workload }

func (w TraceWorkload) run(ctx context.Context, s *Session) (Result, error) {
	return s.net.runClosedLoop(ctx, s.cfg, w.Workload)
}

// TraceWorkloads lists the supported TraceWorkload names in Table IV order.
func TraceWorkloads() []string { return append([]string(nil), trace.WorkloadNames...) }
