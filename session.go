package stringfigure

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/energy"
	"repro/internal/memnode"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// SessionConfig parameterizes one simulation run. The zero value is usable:
// every field has a sensible default filled in by NewSession.
type SessionConfig struct {
	// Rate is the synthetic injection rate in packets/router/cycle (default
	// 0.1). Trace-driven workloads ignore it (they are closed-loop: the
	// offered load emerges from the replay).
	Rate float64
	// Warmup and Measure are the synthetic warm-up and measurement windows
	// in network cycles (defaults 1000 and 4000).
	Warmup, Measure int64
	// PacketFlits is the synthetic packet size in flits (default 1, the
	// request-size normalization the paper's injection-rate axes use).
	PacketFlits int
	// AdaptiveThreshold overrides the adaptive-routing queue-occupancy
	// threshold (0 keeps the paper's 50% default).
	AdaptiveThreshold float64
	// Seed drives all run randomness: simulator injection, trace synthesis
	// and workload models. Equal seeds reproduce identical runs.
	Seed int64

	// Ops is the per-socket trace length for trace-driven workloads
	// (default 2000; the paper collects 100k total).
	Ops int
	// Sockets is the CPU-socket count (default 4), clamped to the alive
	// router count.
	Sockets int
	// Window is the per-socket outstanding-read budget (default 16).
	Window int
	// Threads models cores per socket: instruction gaps shrink by this
	// factor, making the replay bandwidth-bound (default 4).
	Threads int
	// MaxCycles bounds a trace-driven run (default 40M network cycles).
	MaxCycles int64

	// TelemetryEvery is the interval, in network cycles, between the live
	// snapshots streamed by Session.RunTelemetry or a WithTelemetry sink
	// (default 1000). It has no effect until a sink is attached.
	TelemetryEvery int64
	// FlowBuckets enables flow-level attribution on the telemetry stream:
	// nodes fold into this many src/dst buckets (clamped to the node
	// count) and every snapshot carries the interval's per-flow latency/
	// hop deltas plus per-link and per-router utilization (see
	// TelemetrySnapshot.Flows/Links/Routers). 0 disables. Attribution is
	// observational — Results stay bit-identical with it on or off — and,
	// like TelemetryEvery, it has no effect until a sink is attached.
	FlowBuckets int
	// TraceSampleEvery samples packet-lifecycle traces onto the telemetry
	// stream: packets whose id divides by this value record their inject/
	// hop/escape/drop/deliver events into TelemetrySnapshot.Trace.
	// Sampling keys on the deterministic packet id (no RNG), so tracing
	// on/off leaves Results bit-identical. 0 disables; needs a sink.
	TraceSampleEvery int64
	// Gates schedules mid-run reconfiguration: each event gates a node off
	// or back on at its absolute network cycle inside the running
	// simulation (synthetic workloads on reconfigurable designs only).
	// Same-cycle events form one reconfiguration epoch, and epochs closer
	// together than the paper's 100 us minimum reconfiguration interval
	// are deferred to the earliest legal cycle (see GateEvent). Scheduled
	// runs are exclusive — they hold the network's write lock — and
	// restore the starting alive mask on exit. Pair with telemetry to
	// watch the latency transient a reconfiguration causes.
	Gates []GateEvent
	// Scenario attaches declarative scenarios — churn traces, failure
	// storms, diurnal/bursty rate modulation, the S2 regeneration
	// baseline — compiled into a deterministic event schedule before the
	// run starts (see ScenarioSpec and the ChurnTrace/Churn/FailureStorm/
	// DiurnalRate/BurstyRate/RegenerateS2 constructors). Gate-producing
	// scenarios follow the same epoch rules, exclusivity and mask-restore
	// contract as Gates (the two fields are mutually exclusive —
	// ErrScenario if both are set); rate-modulating scenarios run on any
	// design under the read lock like a plain run. Invalid specs surface
	// as ErrScenario when the run starts.
	Scenario []ScenarioSpec

	// ReferenceCore runs the simulation on the netsim reference core — the
	// full-scan, per-flit-routing slow path kept for differential testing —
	// instead of the event-driven core. Results are bit-identical by
	// contract (the cross-core determinism suite enforces it), so the flag
	// only trades speed for independence from the event scheduler; leave it
	// false outside of tests.
	ReferenceCore bool

	// onTelemetry, when set (WithTelemetry, RunTelemetry), receives the
	// interval snapshots. Unexported: it never travels over the sweep wire
	// protocol — remote workers report progress frames instead.
	onTelemetry func(TelemetrySnapshot)
}

func (c *SessionConfig) fill() {
	if c.Rate <= 0 {
		c.Rate = 0.1
	}
	if c.Warmup <= 0 {
		c.Warmup = 1000
	}
	if c.Measure <= 0 {
		c.Measure = 4000
	}
	if c.PacketFlits <= 0 {
		c.PacketFlits = 1
	}
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if c.Sockets <= 0 {
		c.Sockets = 4
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 40_000_000
	}
	if c.TelemetryEvery <= 0 {
		c.TelemetryEvery = 1000
	}
}

// Session owns one simulation run on a Network: a configuration snapshot
// with its RNG seed and warm-up/measurement windows. Sessions are cheap;
// create one per run. A single *Network can serve many sessions
// concurrently — runs take the network's read lock, so they proceed in
// parallel with each other and serialize only against reconfiguration.
type Session struct {
	net *Network
	cfg SessionConfig
}

// NewSession prepares a run against the network with defaults filled in.
func (n *Network) NewSession(cfg SessionConfig) *Session {
	cfg.fill()
	return &Session{net: n, cfg: cfg}
}

// Config returns the session's effective (default-filled) configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// Run executes the workload under this session and returns the unified
// result.
func (s *Session) Run(w Workload) (Result, error) {
	return s.RunContext(context.Background(), w)
}

// RunContext executes the workload with cooperative cancellation: the
// simulation checks ctx between cycle chunks, so long trace runs and sweep
// points abort promptly when the context is canceled (returning ctx.Err()).
func (s *Session) RunContext(ctx context.Context, w Workload) (Result, error) {
	sess := s
	if s.cfg.onTelemetry != nil {
		// Stamp the run's identity onto every snapshot before it reaches
		// the sink (inner wrappers — the sweep's point stamp — run after).
		cfg := s.cfg
		inner := cfg.onTelemetry
		name, seed := w.Name(), cfg.Seed
		cfg.onTelemetry = func(t TelemetrySnapshot) {
			t.Workload = name
			t.Seed = seed
			inner(t)
		}
		sess = &Session{net: s.net, cfg: cfg}
	}
	res, err := w.run(ctx, sess)
	if err != nil {
		return Result{}, err
	}
	res.Workload = w.Name()
	res.Seed = s.cfg.Seed
	return res, nil
}

// Result is the unified outcome of one session run. Synthetic workloads
// fill the network-side metrics; trace-driven workloads additionally fill
// the memory-system metrics (IPC, read latency, DRAM energy).
type Result struct {
	// Workload and Seed identify the run; Rate is the swept injection rate
	// (synthetic) or 0 (closed-loop).
	Workload string
	Rate     float64
	Seed     int64

	// Network-side metrics.
	Cycles        int64
	Injected      int64
	Delivered     int64
	AvgLatencyNs  float64
	P90LatencyNs  float64
	AvgHops       float64
	ThroughputFPC float64 // delivered flits per node per cycle
	Escaped       int64   // escape-subnetwork diversions (deadlock pressure)
	Dropped       int64   // packets dropped as unroutable (reconfig windows)
	Deadlocked    bool

	// Memory-system metrics (trace-driven runs only).
	IPC              float64
	AvgReadLatencyNs float64
	DRAMAccesses     int64
	ReadsCompleted   int64
	TotalInstrs      int64

	// Dynamic-energy split from internal/energy (Table I accounting,
	// radix-corrected pJ/flit-hop).
	NetworkEnergyPJ float64
	DRAMEnergyPJ    float64
	TotalEnergyPJ   float64
	EDP             float64 // pJ x ns

	// Err is set instead of a separate return value when the Result is
	// streamed from Sweep.
	Err error `json:"-"`
}

// snapshotCfg assembles a simulator configuration for the network's current
// active state. Callers must hold n.mu (read side).
func (n *Network) snapshotCfg(cfg SessionConfig) netsim.Config {
	var sc netsim.Config
	if n.net != nil {
		sc = netsim.SFConfig(n.d.SF, cfg.Seed)
		sc.Out = n.net.OutNeighbors()
		sc.Alg = n.net.Router
		sc.VCPolicy = n.net.Router.VirtualChannel
		sc.EscapeRoute = netsim.RingEscape(n.d.SF, n.net.AliveSlice())
	} else {
		sc = n.d.NetCfg(cfg.Seed)
	}
	if cfg.AdaptiveThreshold > 0 {
		sc.AdaptiveThreshold = cfg.AdaptiveThreshold
	}
	sc.ReferenceCore = cfg.ReferenceCore
	return sc
}

// runOpenLoop runs one open-loop synthetic workload. The pattern draws
// memory-node destinations; hostedPattern maps them to routers. patName
// is the pattern's rebuildable name ("" for function workloads, which the
// S2 regeneration scenario rejects — regenerating swaps the node count
// the traffic draws over).
func (n *Network) runOpenLoop(ctx context.Context, cfg SessionConfig, patName string, pat traffic.Pattern) (Result, error) {
	total := cfg.Warmup + cfg.Measure
	sch, err := n.schedule(cfg, total)
	if err != nil {
		return Result{}, err
	}
	if sch.Regen != nil {
		return n.runRegenS2(ctx, cfg, patName, pat, sch.Regen)
	}
	d := &openLoop{pat: pat, rate: cfg.Rate, warmup: cfg.Warmup, end: total}
	if err := n.runSchedule(ctx, cfg, d, sch, 0, &scenarioRecorder{}); err != nil {
		return Result{}, err
	}
	return n.syntheticResult(d.sim.Results(), cfg.Rate), nil
}

// hostedPattern adapts a memory-node traffic pattern to router-level
// injection: each injecting router picks the source uniformly among its
// hosted nodes (so concentrated FB/AFB routers represent all their nodes'
// traffic), filters by node liveness, and drops intra-router traffic.
// nodeAlive is consulted per call, so scheduled (gated) runs pass a dynamic
// lookup.
func (n *Network) hostedPattern(pat traffic.Pattern, nodeAlive func(v int) bool) func(srcRouter int, rng *rand.Rand) (int, bool) {
	hosted := n.d.RouterNodes
	return func(srcRouter int, rng *rand.Rand) (int, bool) {
		// Pick the source memory node among the router's hosted nodes.
		nodes := hosted[srcRouter]
		var src int
		switch len(nodes) {
		case 0:
			return 0, false // router hosts no memory at this scale
		case 1:
			src = nodes[0]
		default:
			src = nodes[rng.Intn(len(nodes))]
		}
		if !nodeAlive(src) {
			return 0, false
		}
		dst, ok := pat(src, rng)
		if !ok || !nodeAlive(dst) {
			return 0, false
		}
		dstRouter := n.d.NodeRouter(dst)
		if dstRouter == srcRouter {
			return 0, false // intra-router traffic never enters the network
		}
		return dstRouter, true
	}
}

// syntheticResult assembles the unified Result of one open-loop measured
// window.
func (n *Network) syntheticResult(res netsim.Results, rate float64) Result {
	var em energy.Model
	em.AddFlitHopsRadix(res.FlitHops, n.d.Ports)
	return Result{
		Rate:            rate,
		Cycles:          res.Cycles,
		Injected:        res.Injected,
		Delivered:       res.Delivered,
		AvgLatencyNs:    res.AvgLatencyNs(),
		P90LatencyNs:    float64(res.LatencyHist.Percentile(0.90)) * netsim.CycleNs,
		AvgHops:         res.AvgHops(),
		ThroughputFPC:   res.ThroughputFlitsPerNodeCycle(),
		Escaped:         res.Escaped,
		Dropped:         res.Dropped,
		Deadlocked:      res.Deadlocked,
		NetworkEnergyPJ: em.NetworkPJ(),
		TotalEnergyPJ:   em.TotalPJ(),
		EDP:             em.EDP(float64(res.Cycles) * netsim.CycleNs),
	}
}

// runClosedLoop runs one closed-loop trace-driven co-simulation (the
// Figure 12 pipeline): synthesize per-socket Table IV traces through the
// paper's cache hierarchy, replay them against DRAM-timed memory nodes
// over the active network, and report IPC, read latency and the energy
// split. Memory pages live on alive nodes (gating migrates them), and
// requests travel at router granularity so the concentrated designs work
// unchanged. Rate modulation and regeneration have no closed-loop meaning
// — offered load emerges from the replay — so those scenarios reject with
// ErrScenario.
func (n *Network) runClosedLoop(ctx context.Context, cfg SessionConfig, workload string) (Result, error) {
	sch, err := n.schedule(cfg, cfg.MaxCycles)
	if err != nil {
		return Result{}, err
	}
	if len(sch.Rates) > 0 || sch.Regen != nil {
		return Result{}, fmt.Errorf("%w: rate modulation and regeneration need an open-loop synthetic workload (trace replay is closed-loop)", ErrScenario)
	}
	d := &closedLoop{workload: workload, maxCycles: cfg.MaxCycles}
	if err := n.runSchedule(ctx, cfg, d, sch, 0, &scenarioRecorder{}); err != nil {
		return Result{}, err
	}
	return traceResult(d.sys), nil
}

// traceParts is the precomputed input of one closed-loop co-simulation:
// the DRAM pool, the socket attachment points and the per-socket traces.
type traceParts struct {
	pool     *memnode.Pool
	cpuNodes []int
	traces   [][]trace.Op
}

// buildTraceParts synthesizes the memory layout and per-socket traces of
// a closed-loop run over the given alive mask (nil = every node; the
// scheduled path passes the AND of every phase's mask so pages and
// sockets never land on a node the schedule gates off).
func (n *Network) buildTraceParts(ctx context.Context, cfg SessionConfig, workload string, alive []bool) (*traceParts, error) {
	// Memory pages are interleaved over the alive nodes only — gating a
	// node migrates its pages rather than dropping its traffic.
	var aliveNodes []int
	for v := 0; v < n.d.N; v++ {
		if alive == nil || alive[v] {
			aliveNodes = append(aliveNodes, v)
		}
	}
	if len(aliveNodes) < 2 {
		return nil, fmt.Errorf("%w: trace run needs >= 2 alive nodes, have %d",
			ErrNodeDead, len(aliveNodes))
	}
	// CPU sockets attach to alive routers (the paper attaches processors to
	// edge nodes; any subset is legal — Section IV).
	var aliveRouters []int
	for r := 0; r < n.d.Routers; r++ {
		if alive == nil || alive[r] {
			aliveRouters = append(aliveRouters, r)
		}
	}
	sockets := cfg.Sockets
	if sockets > len(aliveRouters) {
		sockets = len(aliveRouters)
	}
	cpuNodes := make([]int, sockets)
	for i := range cpuNodes {
		cpuNodes[i] = aliveRouters[(i*len(aliveRouters))/sockets]
	}
	pool, err := memnode.NewPool(n.d.Routers)
	if err != nil {
		return nil, err
	}
	amap := memnode.NewAddressMap(len(aliveNodes))
	traces := make([][]trace.Op, sockets)
	for i := range traces {
		// Trace synthesis is CPU-heavy (hundreds of thousands of cache
		// accesses per socket); honor cancellation between sockets too.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w, err := trace.NewWorkload(workload, amap.CapacityBytes(), cfg.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownPattern, err)
		}
		tr, err := trace.Generate(w, amap, cfg.Ops, cfg.Seed+int64(100+i))
		if err != nil {
			return nil, err
		}
		// Ops address alive memory nodes; the network sees their routers.
		// Instruction gaps compress by the per-socket thread count.
		threads := int64(cfg.Threads)
		for k := range tr.Ops {
			tr.Ops[k].Node = n.d.NodeRouter(aliveNodes[tr.Ops[k].Node])
			tr.Ops[k].Instr /= threads
		}
		traces[i] = tr.Ops
	}
	return &traceParts{pool: pool, cpuNodes: cpuNodes, traces: traces}, nil
}

// traceResult assembles the unified Result of one completed closed-loop
// co-simulation.
func traceResult(sys *memsys.System) Result {
	mres := sys.Results()
	netRes := sys.NetResults()
	return Result{
		Cycles:           mres.Cycles,
		Injected:         netRes.Injected,
		Delivered:        netRes.Delivered,
		AvgLatencyNs:     netRes.AvgLatencyNs(),
		P90LatencyNs:     float64(netRes.LatencyHist.Percentile(0.90)) * netsim.CycleNs,
		AvgHops:          netRes.AvgHops(),
		ThroughputFPC:    netRes.ThroughputFlitsPerNodeCycle(),
		Escaped:          netRes.Escaped,
		Dropped:          netRes.Dropped,
		Deadlocked:       netRes.Deadlocked,
		IPC:              mres.IPC,
		AvgReadLatencyNs: mres.AvgReadLatencyNs,
		DRAMAccesses:     mres.DRAMAccesses,
		ReadsCompleted:   mres.ReadsComplete,
		TotalInstrs:      mres.TotalInstrs,
		NetworkEnergyPJ:  mres.NetworkPJ,
		DRAMEnergyPJ:     mres.DRAMPJ,
		TotalEnergyPJ:    mres.TotalPJ,
		EDP:              mres.EDP,
	}
}
