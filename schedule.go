package stringfigure

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// This file runs every session. runSchedule is the one run loop: it
// advances a driver — the open-loop netsim run or the closed-loop memsys
// replay — through a compiled scenario.Schedule, applying each event
// between simulator slices at its cycle. A plain run is the empty
// schedule, and the legacy SessionConfig.Gates list lowers into the same
// schedule (schedule). Runs whose schedule gates nodes hold the network's
// write lock and execute on a gateRig; every other run holds the read
// lock over the network's live configuration. The S2 regeneration
// baseline (runRegenS2) is two open-loop runs of the loop, one per
// topology, stitched by mergeNetResults.

// simChunk is how many cycles an open-loop run advances between
// cancellation checks.
const simChunk = 2048

// traceSliceCycles is how many cycles a closed-loop replay advances
// between completion, deadlock and cancellation checks.
const traceSliceCycles = 32

// schedule resolves a run's compiled schedule over `total` cycles:
// Scenario specs compile against the network, and legacy Gates normalize
// under the same Section VI epoch rules. No scenario yields the empty
// schedule.
func (n *Network) schedule(cfg SessionConfig, total int64) (scenario.Schedule, error) {
	if len(cfg.Scenario) > 0 {
		return n.compileScenario(cfg, total)
	}
	if len(cfg.Gates) == 0 {
		return scenario.Schedule{}, nil
	}
	if n.net == nil {
		return scenario.Schedule{}, fmt.Errorf("%w: gate schedule on %s", ErrNotReconfigurable, n.d.Name)
	}
	t := n.net.Timing
	raw := make([]scenario.GateEvent, len(cfg.Gates))
	for i, ev := range cfg.Gates {
		raw[i] = scenario.GateEvent(ev)
	}
	return scenario.Schedule{Gates: scenario.Normalize(raw,
		int64(t.LinkWakeNs/netsim.CycleNs), int64(t.MinIntervalNs/netsim.CycleNs), total)}, nil
}

// driver is the simulator the run loop advances.
type driver interface {
	// start builds the simulator over the configuration the loop
	// assembled on n. mask holds the nodes alive through the whole run
	// (nil: every node); alive reports a node's liveness at the current
	// cycle.
	start(ctx context.Context, n *Network, cfg SessionConfig, simCfg netsim.Config,
		mask []bool, alive func(v int) bool) (*netsim.Sim, error)
	// finished reports whether the run is over, or why it failed.
	finished() (bool, error)
	// advance runs one slice, stopping at cycle `to` at the latest.
	advance(to int64) error
}

// openLoop drives one open-loop synthetic run: the pattern injects at a
// fixed rate (rate events move it) until the simulator reaches end, and
// the statistics reset once at warmup (0: never) to open the measured
// window. Both cycles are on the simulator's own clock.
type openLoop struct {
	pat         traffic.Pattern
	rate        float64
	warmup, end int64
	sim         *netsim.Sim
}

func (d *openLoop) start(_ context.Context, n *Network, cfg SessionConfig, simCfg netsim.Config,
	_ []bool, alive func(v int) bool) (*netsim.Sim, error) {
	simCfg.PacketFlits = cfg.PacketFlits
	wireTelemetry(&simCfg, cfg, cfg.Rate, nil)
	sim, err := netsim.New(simCfg)
	if err != nil {
		return nil, err
	}
	sim.SetPattern(d.rate, n.hostedPattern(d.pat, alive))
	d.sim = sim
	return sim, nil
}

func (d *openLoop) finished() (bool, error) { return d.sim.Cycle() >= d.end, nil }

func (d *openLoop) advance(to int64) error {
	now := d.sim.Cycle()
	to = min(to, d.end, now+simChunk)
	if now < d.warmup {
		to = min(to, d.warmup)
	}
	d.sim.Run(to - now)
	if d.sim.Cycle() == d.warmup {
		d.sim.ResetStats()
	}
	return nil
}

// closedLoop drives one closed-loop trace replay (the Figure 12
// pipeline): per-socket Table IV traces replay against DRAM-timed memory
// nodes until every read returns, within maxCycles.
type closedLoop struct {
	workload  string
	maxCycles int64
	sys       *memsys.System
}

func (d *closedLoop) start(ctx context.Context, n *Network, cfg SessionConfig, simCfg netsim.Config,
	mask []bool, _ func(v int) bool) (*netsim.Sim, error) {
	parts, err := n.buildTraceParts(ctx, cfg, d.workload, mask)
	if err != nil {
		return nil, err
	}
	// The snapshot hook reaches through to the co-simulation for the
	// memory-side occupancy; d.sys is assigned before any cycle runs, and
	// callbacks fire on the simulating goroutine.
	wireTelemetry(&simCfg, cfg, 0, func() int {
		if d.sys == nil {
			return 0
		}
		return d.sys.OutstandingReads()
	})
	d.sys, err = memsys.Build(simCfg, parts.pool, parts.cpuNodes, cfg.Window, parts.traces)
	if err != nil {
		return nil, err
	}
	d.sys.Ports = n.d.Ports
	return d.sys.Sim(), nil
}

func (d *closedLoop) finished() (bool, error) {
	if d.sys.Done() {
		return true, nil
	}
	if now := d.sys.Sim().Cycle(); now >= d.maxCycles {
		return false, fmt.Errorf("stringfigure: %s trace run did not finish in %d cycles", d.workload, now)
	}
	return false, nil
}

func (d *closedLoop) advance(to int64) error {
	d.sys.Run(min(to-d.sys.Sim().Cycle(), traceSliceCycles))
	if d.sys.NetResults().Deadlocked {
		return errors.New("memsys: network deadlocked")
	}
	return nil
}

// runSchedule is the session run loop: it advances d through sch on this
// network until the driver finishes. The simulator's clock starts at
// absolute run cycle `from` (0 except for the second half of an S2
// regeneration); rec stamps the applied events onto the telemetry
// stream. A schedule with gate events runs exclusively, under the write
// lock, on a gateRig over the union of every phase's links, and restores
// the starting alive mask on exit; anything else runs under the read lock
// on the network's live configuration.
func (n *Network) runSchedule(ctx context.Context, cfg SessionConfig, d driver,
	sch scenario.Schedule, from int64, rec *scenarioRecorder) error {
	var rig *gateRig
	if len(sch.Gates) > 0 {
		if n.net == nil {
			return fmt.Errorf("%w: gate schedule on %s", ErrNotReconfigurable, n.d.Name)
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		var err error
		if rig, err = n.newGateRig(sch.Gates, rec); err != nil {
			return err
		}
	} else {
		n.mu.RLock()
		defer n.mu.RUnlock()
	}

	simCfg := n.snapshotCfg(cfg)
	var mask []bool
	if n.net != nil {
		mask = n.net.AliveSlice()
	}
	alive := func(v int) bool { return mask == nil || mask[v] }
	if rig != nil {
		// Every wire any phase activates exists from cycle 0; injection
		// follows the live mask as events apply, while pages and sockets
		// stay on the nodes powered through every phase.
		simCfg.Out = rig.out
		simCfg.EscapeRoute = rig.escapeFor(rig.start)
		mask = rig.everAlive()
		alive = func(v int) bool { return rig.aliveNow[v] }
	}
	sim, err := d.start(ctx, n, rec.wrap(cfg, from), simCfg, mask, alive)
	if err != nil {
		return err
	}
	if rig != nil {
		rig.attach(sim)
		defer rig.restore()
	}

	// Events in simulator cycles; gates apply before rate changes at the
	// same cycle.
	type action struct {
		cycle int64
		apply func() error
	}
	var acts []action
	for i, ev := range sch.Gates {
		acts = append(acts, action{ev.Cycle - from, func() error { return rig.apply(i) }})
	}
	for _, ev := range sch.Rates {
		acts = append(acts, action{ev.Cycle - from, func() error {
			rate := cfg.Rate * ev.Scale
			sim.SetRate(rate)
			rec.add(ScenarioEvent{Cycle: ev.Cycle, Kind: scenarioEvRate, Rate: rate})
			return nil
		}})
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].cycle < acts[j].cycle })

	for i := 0; ; {
		for ; i < len(acts) && acts[i].cycle <= sim.Cycle(); i++ {
			if err := acts[i].apply(); err != nil {
				return err
			}
		}
		if done, err := d.finished(); done || err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		to := int64(math.MaxInt64)
		if i < len(acts) {
			to = acts[i].cycle
		}
		if err := d.advance(to); err != nil {
			return err
		}
	}
}

// gateRig is the shared execution machinery of gate-scheduled runs: the
// validated schedule with the alive mask each phase passes through, the
// per-phase adjacency and its union (the simulator's physical link set),
// the link wake-latency charges a gate-off incurs, and the live apply/
// restore hooks. The caller holds the network's write lock for the rig's
// whole lifetime — reconfiguration is part of the run, so scheduled runs
// are exclusive.
type gateRig struct {
	n      *Network
	events []scenario.GateEvent
	// masks[i] is the alive mask after the first i events; adjs[i] its
	// adjacency. out is the union adjacency over every phase: all wires
	// any phase activates exist from cycle 0 (they are pre-provisioned
	// shortcuts or switched links); which ones carry traffic at any moment
	// is governed by the live routing tables.
	masks [][]bool
	adjs  [][][]int
	out   [][]int
	// start is the alive mask on entry (restored on exit); aliveNow tracks
	// the live mask as events apply, consulted dynamically by injection.
	start    []bool
	aliveNow []bool
	// wake charges links a gate-off switches on (ring healing) their
	// remaining wake-up latency, keyed by directed link.
	wakeCycles int64
	wake       map[[2]int]int64
	sim        *netsim.Sim
	rec        *scenarioRecorder
}

// newGateRig validates the normalized schedule against the live network
// (the caller holds the write lock) and precomputes every phase's
// adjacency. Validation matches the documented Gates contract: events
// must stay in range, never re-apply a node's current state, and never
// drop the network below two alive nodes.
func (n *Network) newGateRig(events []scenario.GateEvent, rec *scenarioRecorder) (*gateRig, error) {
	start := n.net.AliveSlice()
	cur := append([]bool(nil), start...)
	masks := [][]bool{start}
	aliveCount := len(start)
	for _, a := range start {
		if !a {
			aliveCount--
		}
	}
	for _, ev := range events {
		if ev.Cycle < 0 || ev.Node < 0 || ev.Node >= n.d.N {
			return nil, fmt.Errorf("%w: gate event %+v", ErrOutOfRange, ev)
		}
		if cur[ev.Node] == ev.On {
			return nil, fmt.Errorf("stringfigure: gate event at cycle %d: node %d already %s",
				ev.Cycle, ev.Node, map[bool]string{true: "on", false: "off"}[ev.On])
		}
		if !ev.On && aliveCount <= 2 {
			return nil, fmt.Errorf("stringfigure: gate event at cycle %d would drop below two alive nodes", ev.Cycle)
		}
		cur[ev.Node] = ev.On
		if ev.On {
			aliveCount++
		} else {
			aliveCount--
		}
		masks = append(masks, append([]bool(nil), cur...))
	}

	adjs := make([][][]int, len(masks))
	union := make([]map[int]bool, n.d.Routers)
	for i := range union {
		union[i] = make(map[int]bool)
	}
	for mi, m := range masks {
		adjs[mi] = n.net.AdjacencyFor(m)
		for u, nbrs := range adjs[mi] {
			for _, v := range nbrs {
				union[u][v] = true
			}
		}
	}
	out := make([][]int, n.d.Routers)
	for u, set := range union {
		nbrs := make([]int, 0, len(set))
		for v := range set {
			nbrs = append(nbrs, v)
		}
		sort.Ints(nbrs)
		out[u] = nbrs
	}
	return &gateRig{
		n:          n,
		events:     events,
		masks:      masks,
		adjs:       adjs,
		out:        out,
		start:      start,
		aliveNow:   start,
		wakeCycles: int64(n.net.Timing.LinkWakeNs / netsim.CycleNs),
		wake:       make(map[[2]int]int64),
		rec:        rec,
	}, nil
}

// escapeFor builds the escape function for an alive mask. It declines
// packets whose destination is gated off (returning a non-link): they are
// permanently undeliverable, and the simulator drops them as unroutable —
// letting them commit to the escape ring instead would have them
// circulate forever, eventually clogging the escape channels and wedging
// the whole network.
func (r *gateRig) escapeFor(alive []bool) func(cur, dst int) (int, int) {
	ring := netsim.RingEscape(r.n.d.SF, alive)
	return func(cur, dst int) (int, int) {
		if !alive[dst] {
			return -1, 0
		}
		return ring(cur, dst)
	}
}

// attach binds the rig to its simulator and installs the wake-aware link
// latency: flits routed onto a still waking link are charged its
// remaining wake time, which is the mechanism behind the post-gate-off
// latency transient the telemetry stream watches.
func (r *gateRig) attach(sim *netsim.Sim) {
	r.sim = sim
	sim.SetLinkLatency(func(u, v int) int {
		l := netsim.DefaultLinkLatency
		if until, ok := r.wake[[2]int{u, v}]; ok {
			if d := until - sim.Cycle(); d > 0 {
				l += int(d)
			}
		}
		return l
	})
}

// everAlive returns the AND of every phase's alive mask: the nodes that
// stay powered through the whole schedule (where closed-loop runs place
// memory pages and CPU sockets).
func (r *gateRig) everAlive() []bool {
	ever := append([]bool(nil), r.start...)
	for _, m := range r.masks {
		for i, a := range m {
			if !a {
				ever[i] = false
			}
		}
	}
	return ever
}

// apply executes event idx against the live network and simulator:
// gate the node, swap the escape routes to the new mask, and start the
// wake clock on links a gate-off switches on (ring healing) — a gate-on
// was already deferred past its links' wake by normalization.
func (r *gateRig) apply(idx int) error {
	ev := r.events[idx]
	var err error
	if ev.On {
		err = r.n.net.GateOn(ev.Node)
	} else {
		err = r.n.net.GateOff(ev.Node)
	}
	if err != nil {
		return err
	}
	r.aliveNow = r.n.net.AliveSlice()
	r.sim.SetEscapeRoute(r.escapeFor(r.aliveNow))
	if !ev.On {
		old := r.adjs[idx]
		for u, nbrs := range r.adjs[idx+1] {
			was := make(map[int]bool, len(old[u]))
			for _, v := range old[u] {
				was[v] = true
			}
			for _, v := range nbrs {
				if !was[v] {
					r.wake[[2]int{u, v}] = r.sim.Cycle() + r.wakeCycles
				}
			}
		}
	}
	kind := scenarioEvGateOff
	if ev.On {
		kind = scenarioEvGateOn
	}
	r.rec.add(ScenarioEvent{Cycle: ev.Cycle, Kind: kind, Node: ev.Node})
	return nil
}

// restore puts the starting alive mask back however the run ended: a
// session run never permanently reconfigures its network.
func (r *gateRig) restore() {
	now := r.n.net.AliveSlice()
	for i := range now {
		if now[i] != r.start[i] {
			r.n.net.SetAlive(r.start)
			return
		}
	}
}

// runRegenS2 executes the ScenarioRegenS2 baseline: the full-scale S2
// topology runs to the regeneration cycle; the topology is then
// regenerated at Drop fewer nodes (a fresh seeded build — S2 cannot gate
// nodes, so down-scaling means rebuilding), and the remainder runs on the
// new network with injection silenced through the rebuild outage. The
// measured window stitches both halves together, so the regeneration's
// outage and warm-cache loss land in the same metrics a String Figure
// storm is measured by.
func (n *Network) runRegenS2(ctx context.Context, cfg SessionConfig, patName string,
	pat traffic.Pattern, rg *scenario.Regen) (Result, error) {
	if n.d.Name != "s2" {
		return Result{}, fmt.Errorf("%w: regen-s2 on design %q (the regeneration baseline rebuilds an s2 topology; reconfigurable designs gate nodes in place instead)",
			ErrScenario, n.d.Name)
	}
	if patName == "" {
		return Result{}, fmt.Errorf("%w: regen-s2 needs a named synthetic pattern (traffic re-derives on the regenerated topology)", ErrScenario)
	}
	total := cfg.Warmup + cfg.Measure
	R := rg.Cycle
	// The first half is measured only when the regeneration lands after
	// warm-up; an earlier one leaves the whole measured window to the
	// second half, which then opens it at warm-up on its own clock.
	measuredA := R > cfg.Warmup
	rec := &scenarioRecorder{}
	a := &openLoop{pat: pat, rate: cfg.Rate, end: R}
	b := &openLoop{rate: 0, end: total - R}
	if measuredA {
		a.warmup = cfg.Warmup
	} else {
		b.warmup = cfg.Warmup - R
	}
	if err := n.runSchedule(ctx, cfg, a, scenario.Schedule{}, 0, rec); err != nil {
		return Result{}, err
	}

	// Regenerate: same design family and ports, Drop fewer nodes, a seed
	// derived deterministically from the original build.
	sp := n.spec()
	sp.Nodes -= rg.Drop
	sp.Seed += 1 + int64(rg.Drop)
	sp.Alive = nil
	n2, err := sp.build()
	if err != nil {
		return Result{}, fmt.Errorf("%w: regenerating s2 at %d nodes: %v", ErrScenario, sp.Nodes, err)
	}
	if b.pat, err = traffic.NewPattern(patName, n2.Nodes()); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrUnknownPattern, err)
	}
	rec.add(ScenarioEvent{Cycle: R, Kind: scenarioEvRegen, Node: n2.Nodes()})
	var schB scenario.Schedule
	if R+rg.Outage < total {
		schB.Rates = []scenario.RateEvent{{Cycle: R + rg.Outage, Scale: 1}}
	}
	if err := n2.runSchedule(ctx, cfg, b, schB, R, rec); err != nil {
		return Result{}, err
	}

	res := b.sim.Results()
	if measuredA {
		res = mergeNetResults(a.sim.Results(), res)
	}
	return n.syntheticResult(res, cfg.Rate), nil
}

// mergeNetResults stitches two measured windows into one: counters and
// latency aggregates sum, histograms merge, occupancy comes from the
// later window, and the node count stays phase A's (the per-node
// throughput normalization keeps the original machine size as its
// denominator, charging the regeneration's capacity loss to throughput).
func mergeNetResults(a, b netsim.Results) netsim.Results {
	m := a
	m.Cycles += b.Cycles
	m.Injected += b.Injected
	m.Delivered += b.Delivered
	m.Dropped += b.Dropped
	m.Escaped += b.Escaped
	m.FlitsDelivered += b.FlitsDelivered
	m.FlitHops += b.FlitHops
	m.InFlight = b.InFlight
	m.LatencySum += b.LatencySum
	m.LatencyHist.Merge(&b.LatencyHist)
	m.HopHist.Merge(&b.HopHist)
	if m.MinInjectLatency < 0 || (b.MinInjectLatency >= 0 && b.MinInjectLatency < m.MinInjectLatency) {
		m.MinInjectLatency = b.MinInjectLatency
	}
	m.Deadlocked = m.Deadlocked || b.Deadlocked
	return m
}
