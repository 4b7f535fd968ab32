package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	stringfigure "repro"
	"repro/internal/cache"
	"repro/internal/design"
	"repro/internal/memnode"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// point is one simulated point: a session configuration and a workload
// on a network, with the labels the checks and metrics need.
type point struct {
	net      *stringfigure.Network
	spec     netSpec
	cfg      stringfigure.SessionConfig
	w        stringfigure.Workload
	scenario bool
}

// netSpec identifies a network build.
type netSpec struct {
	kind  string
	nodes int
	seed  int64
}

// pointRun is one point's outcome as Session.Run returned it.
type pointRun struct {
	res  stringfigure.Result
	err  error
	secs float64
	span int
}

// runPoints runs every point through Session.Run on e.workers goroutines,
// the way a sweep does, and times each call.
func runPoints(e *env, parent int, pts []point) []pointRun {
	out := make([]pointRun, len(pts))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := pts[i]
				sp := e.tr.Start(parent, "session", "Session.Run")
				start := time.Now()
				res, err := p.net.NewSession(p.cfg).Run(p.w)
				out[i] = pointRun{res: res, err: err, secs: time.Since(start).Seconds(), span: sp}
				e.tr.End(sp)
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// isTrace reports whether a point replays a closed-loop trace workload.
func isTrace(p point) bool {
	_, ok := p.w.(stringfigure.TraceWorkload)
	return ok
}

// sessionMetrics reports the session, netsim and memsys counters of the
// points' Session.Run calls.
func sessionMetrics(e *env, o *outcome, pts []point, runs []pointRun, wall float64) {
	var plain, scen, openSecs, cycles, flits, escaped, delivered, deadlocked float64
	var simCycles, reads float64
	for i, r := range runs {
		p := pts[i]
		if p.scenario {
			scen += r.secs
		} else {
			plain += r.secs
		}
		if isTrace(p) {
			simCycles += float64(r.res.Cycles)
			reads += float64(r.res.ReadsCompleted)
			continue
		}
		cfg := p.net.NewSession(p.cfg).Config()
		openSecs += r.secs
		cycles += float64(r.res.Cycles)
		flits += float64(r.res.Delivered) * float64(cfg.PacketFlits)
		delivered += float64(r.res.Delivered)
		escaped += float64(r.res.Escaped)
		if r.res.Deadlocked {
			deadlocked++
		}
	}
	m := o.layer
	m.set("session.run_s.plain", "s", plain)
	m.set("session.run_s.scenario", "s", scen)
	m.set("session.points", "count", float64(len(runs)))
	m.set("sweep.busy_ratio", "ratio", ratio(plain+scen, wall*float64(e.workers)))
	m.set("netsim.cycles_per_s", "1/s", ratio(cycles, openSecs))
	m.set("netsim.flits_delivered", "count", flits)
	m.set("netsim.escape_ratio", "ratio", ratio(escaped, delivered))
	m.set("netsim.deadlocked_points", "count", deadlocked)
	m.set("memsys.sim_cycles", "count", simCycles)
	m.set("memsys.reads", "count", reads)
}

// probeNetworks measures the design, routing and netsim construction
// layers on every distinct network the workload uses: design.BuildKind,
// Algorithm.Candidates over every router x destination pair, and
// netsim.New with the design's simulator configuration.
func probeNetworks(e *env, o *outcome, specs []netSpec) error {
	var buildSecs, candSecs, newSecs float64
	var builds, calls int
	seen := map[netSpec]bool{}
	for _, s := range specs {
		if seen[s] {
			continue
		}
		seen[s] = true
		sp := e.tr.Start(e.phase, "design", "design.BuildKind")
		e.tr.OffTable(sp)
		start := time.Now()
		d, err := design.BuildKind(s.kind, s.nodes, s.seed)
		buildSecs += time.Since(start).Seconds()
		e.tr.End(sp)
		if err != nil {
			return fmt.Errorf("design.BuildKind(%s, %d): %w", s.kind, s.nodes, err)
		}
		builds++

		sp = e.tr.Start(e.phase, "routing", "Algorithm.Candidates")
		e.tr.OffTable(sp)
		start = time.Now()
		for cur := 0; cur < d.Routers; cur++ {
			for dst := 0; dst < d.Routers; dst++ {
				if cur != dst {
					d.Alg.Candidates(cur, dst)
					calls++
				}
			}
		}
		candSecs += time.Since(start).Seconds()
		e.tr.End(sp)

		sp = e.tr.Start(e.phase, "netsim", "netsim.New")
		e.tr.OffTable(sp)
		start = time.Now()
		_, err = netsim.New(d.NetCfg(s.seed))
		newSecs += time.Since(start).Seconds()
		e.tr.End(sp)
		if err != nil {
			return fmt.Errorf("netsim.New(%s, %d): %w", s.kind, s.nodes, err)
		}
	}
	o.layer.set("routing.candidates_ns", "ns", ratio(candSecs*1e9, float64(calls)))
	o.layer.set("netsim.new_s", "s", newSecs)
	o.addDesign(buildSecs, builds)
	return nil
}

// addDesign adds design builds to the design.* metrics.
func (o *outcome) addDesign(secs float64, builds int) {
	o.layer.set("design.build_s", "s", o.layer["design.build_s"].Value+secs)
	o.layer.set("design.builds", "count", o.layer["design.builds"].Value+float64(builds))
}

// traceInput identifies one trace.Generate call of a closed-loop session:
// socket i of a run synthesizes its trace from seed+i (workload model) and
// seed+100+i (access stream) over the network's node count.
type traceInput struct {
	workload string
	nodes    int
	seed     int64
	socket   int
	ops      int
}

// traceCost is what one distinct trace input cost, measured by replay.
type traceCost struct {
	ops            []trace.Op
	gen, cacheSecs float64
}

// traceInputs lists the Generate calls a trace point makes, mirroring the
// session's closed-loop set-up (every node alive: fresh networks).
func traceInputs(p point) []traceInput {
	cfg := p.net.NewSession(p.cfg).Config()
	sockets := min(cfg.Sockets, p.net.Routers())
	w := p.w.(stringfigure.TraceWorkload).Workload
	in := make([]traceInput, sockets)
	for i := range in {
		in[i] = traceInput{workload: w, nodes: p.net.Nodes(), seed: cfg.Seed, socket: i, ops: cfg.Ops}
	}
	return in
}

// pointCost is the replayed cost of one trace point: trace synthesis
// (cache included), its cache replay, and its memsys closed loop.
type pointCost struct {
	gen, cache, memsys float64
}

// probeTraces measures the trace, cache and memsys layers under the trace
// points: trace.NewWorkload + trace.Generate once per distinct input, the
// same raw access stream replayed through a fresh paper cache hierarchy,
// and each point's closed loop (memsys.Build + RunToCompletion) over the
// generated traces. It reports memsys.replay_s as the points' Session.Run
// time left after trace synthesis, and returns each point's costs (zero
// for open-loop points).
func probeTraces(e *env, o *outcome, pts []point, runs []pointRun) ([]pointCost, error) {
	costs := map[traceInput]*traceCost{}
	out := make([]pointCost, len(pts))
	var calls int
	var genSecs, cacheSecs, accesses, misses, runSecs, memsysSecs, memsysCycles float64
	for i, p := range pts {
		if !isTrace(p) {
			continue
		}
		inputs := traceInputs(p)
		traces := make([][]trace.Op, len(inputs))
		for k, in := range inputs {
			c := costs[in]
			if c == nil {
				var err error
				var acc, miss int64
				if c, acc, miss, err = measureTrace(e, in); err != nil {
					return nil, err
				}
				costs[in] = c
				accesses += float64(acc)
				misses += float64(miss)
				cacheSecs += c.cacheSecs
			}
			calls++
			out[i].gen += c.gen
			out[i].cache += c.cacheSecs
			traces[k] = c.ops
		}
		secs, cycles, err := measureMemsys(e, p, traces)
		if err != nil {
			return nil, err
		}
		out[i].memsys = secs
		memsysSecs += secs
		memsysCycles += float64(cycles)
		genSecs += out[i].gen
		runSecs += runs[i].secs
	}
	m := o.layer
	m.set("trace.generate_s", "s", genSecs)
	m.set("trace.generate_calls", "count", float64(calls))
	m.set("trace.distinct_inputs", "count", float64(len(costs)))
	m.set("cache.accesses", "count", accesses)
	m.set("cache.ns_per_access", "ns", ratio(cacheSecs*1e9, accesses))
	m.set("cache.miss_rate", "ratio", ratio(misses, accesses))
	m.set("memsys.replay_s", "s", runSecs-genSecs)
	m.set("memsys.cycles_per_s", "1/s", ratio(memsysCycles, memsysSecs))
	m.set("memsys.probe_s", "s", memsysSecs)
	return out, nil
}

// attribute files a trace point's replayed costs under span: synthesis
// to trace, the cache replay to cache, the closed loop to memsys.
func (c pointCost) attribute(e *env, span int) {
	e.tr.Attribute(span, "trace", c.gen-c.cache)
	e.tr.Attribute(span, "cache", c.cache)
	e.tr.Attribute(span, "memsys", c.memsys)
}

// measureTrace times trace.NewWorkload + trace.Generate for one input,
// then replays the identical raw access stream (warm-up included) through
// cache.NewPaperHierarchy and times the Access calls alone. The replay's
// post-warm-up miss rate must equal the trace's: otherwise the replay did
// not see the stream Generate saw.
func measureTrace(e *env, in traceInput) (*traceCost, int64, int64, error) {
	amap := memnode.NewAddressMap(in.nodes)
	sp := e.tr.Start(e.phase, "trace", "trace.Generate")
	e.tr.OffTable(sp)
	start := time.Now()
	w, err := trace.NewWorkload(in.workload, amap.CapacityBytes(), in.seed+int64(in.socket))
	if err != nil {
		return nil, 0, 0, err
	}
	tr, err := trace.Generate(w, amap, in.ops, in.seed+int64(100+in.socket))
	gen := time.Since(start).Seconds()
	e.tr.End(sp)
	if err != nil {
		return nil, 0, 0, err
	}

	w, _ = trace.NewWorkload(in.workload, amap.CapacityBytes(), in.seed+int64(in.socket))
	rng := rand.New(rand.NewSource(in.seed + int64(100+in.socket)))
	stream := make([]trace.Access, trace.WarmupAccesses+int(tr.RawAccesses))
	for i := range stream {
		stream[i] = w.Next(rng)
	}
	h := cache.NewPaperHierarchy()
	access := func(as []trace.Access) {
		for _, a := range as {
			t := cache.Read
			if a.Write {
				t = cache.Write
			}
			h.Access(a.Addr, t)
		}
	}
	sp = e.tr.Start(e.phase, "cache", "cache.Hierarchy.Access")
	e.tr.OffTable(sp)
	start = time.Now()
	access(stream[:trace.WarmupAccesses])
	warmAcc, warmMiss := h.Accesses, h.Misses
	access(stream[trace.WarmupAccesses:])
	cacheSecs := time.Since(start).Seconds()
	e.tr.End(sp)
	if got := float64(h.Misses-warmMiss) / float64(h.Accesses-warmAcc); got != tr.MissRate {
		return nil, 0, 0, fmt.Errorf("cache replay of %+v: miss rate %g, trace.Generate saw %g", in, got, tr.MissRate)
	}
	return &traceCost{ops: tr.Ops, gen: gen, cacheSecs: cacheSecs}, h.Accesses, h.Misses, nil
}

// measureMemsys times one point's closed loop over pre-generated traces:
// memsys.Build on the design's simulator configuration, then
// RunToCompletion, as the session wires it on a fresh network. It returns
// the seconds and the network cycles simulated.
func measureMemsys(e *env, p point, traces [][]trace.Op) (float64, int64, error) {
	cfg := p.net.NewSession(p.cfg).Config()
	d, err := design.BuildKind(p.spec.kind, p.spec.nodes, p.spec.seed)
	if err != nil {
		return 0, 0, err
	}
	pool, err := memnode.NewPool(d.Routers)
	if err != nil {
		return 0, 0, err
	}
	cpus := make([]int, len(traces))
	ops := make([][]trace.Op, len(traces))
	for i, t := range traces {
		cpus[i] = (i * d.Routers) / len(traces)
		ops[i] = make([]trace.Op, len(t))
		for k, op := range t {
			op.Node = d.NodeRouter(op.Node)
			op.Instr /= int64(cfg.Threads)
			ops[i][k] = op
		}
	}
	sp := e.tr.Start(e.phase, "memsys", "memsys.System.RunToCompletion")
	e.tr.OffTable(sp)
	defer e.tr.End(sp)
	start := time.Now()
	sys, err := memsys.Build(d.NetCfg(cfg.Seed), pool, cpus, cfg.Window, ops)
	if err != nil {
		return 0, 0, err
	}
	sys.Ports = d.Ports
	cycles, done, err := sys.RunToCompletion(cfg.MaxCycles)
	if err != nil || !done {
		return 0, 0, fmt.Errorf("memsys replay of %s on %s did not finish: %v", p.w.Name(), p.spec.kind, err)
	}
	return time.Since(start).Seconds(), cycles, nil
}
