package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
)

// minJobs is the fewest job latencies a run reports percentiles over:
// enough for ten samples beyond the 90th percentile. minPasses re-runs
// every figure at least twice, so a point's latency is not a snapshot of
// one short stretch of a shared host.
const (
	minJobs   = 100
	minPasses = 2
)

// figure is a paper-figure workload. Each repetition of its timed phase
// regenerates the figure through its experiments function (wall_s), then
// re-runs the figure's points one Session.Run each on the sweep's worker
// count, in at least minPasses passes and until at least minJobs point
// latencies are in (the job latency of a figure workload). Every re-run
// point must reproduce the figure's cell exactly.
type figure struct {
	nodes   int
	designs []string
	nets    map[string]*stringfigure.Network
	// regen regenerates the figure and returns its tables.
	regen func(e *env) ([]*stats.Series, error)
	// points lists the figure's points on the set-up networks.
	points func(e *env, f *figure) []point
	// cells checks the re-run points against the tables; it returns how
	// many cells disagree, with the first disagreement.
	cells func(tables []*stats.Series, pts []point, runs []pointRun) (int, string)

	pass []pointRun // the first re-run pass, for the traced layer probes
	pts  []point
}

func (f *figure) setup(e *env) error {
	f.nets = map[string]*stringfigure.Network{}
	for _, kind := range f.designs {
		sp := e.tr.Start(e.phase, "design", "stringfigure.New")
		net, err := stringfigure.New(stringfigure.WithDesign(kind), stringfigure.WithNodes(f.nodes),
			stringfigure.WithSeed(e.prog))
		e.tr.End(sp)
		if err != nil {
			return err
		}
		f.nets[kind] = net
	}
	return nil
}

func (f *figure) close() {}

func (f *figure) unit(e *env) (unitResult, error) {
	sp := e.tr.Start(e.phase, "sweep", "experiments.Fig")
	e.tr.OffTable(sp)
	start := time.Now()
	tables, err := f.regen(e)
	wall := time.Since(start).Seconds()
	rss := peakRSSMB()
	e.tr.End(sp)
	if err != nil {
		return unitResult{}, err
	}
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.String()))
	}
	u := unitResult{wall: wall, rss: rss, digest: hex.EncodeToString(h.Sum(nil))}
	pts := f.points(e, f)
	u.attempted += len(pts) // the figure's own points
	for pass := 0; pass < minPasses || len(u.jobs) < minJobs; pass++ {
		// Only the first pass feeds the layer table; later passes repeat it.
		sp := e.tr.Start(e.phase, "bench", "point pass")
		if f.pass != nil {
			e.tr.OffTable(sp)
		}
		runs := runPoints(e, sp, pts)
		e.tr.End(sp)
		if f.pass == nil {
			f.pass, f.pts = runs, pts
		}
		for _, r := range runs {
			u.jobs = append(u.jobs, r.secs)
			if r.err != nil {
				u.failed++
			}
		}
		u.attempted += len(runs)
		if bad, first := f.cells(tables, pts, runs); bad > 0 {
			u.failed += bad
			fmt.Fprintf(e.log, "perfbench: %d re-run cells disagree with the figure; first: %s\n", bad, first)
		}
	}
	return u, nil
}

func (f *figure) finish(e *env, o *outcome) error {
	if e.tr == nil {
		return nil
	}
	o.addDesign(LayerTime(e.tr.Spans(), "design", "stringfigure.New"))
	specs := make([]netSpec, 0, len(f.designs))
	for _, kind := range f.designs {
		specs = append(specs, netSpec{kind, f.nodes, e.prog})
	}
	if err := probeNetworks(e, o, specs); err != nil {
		return err
	}
	sessionMetrics(e, o, f.pts, f.pass, median(o.walls))
	costs, err := probeTraces(e, o, f.pts, f.pass)
	if err != nil {
		return err
	}
	for i, r := range f.pass {
		if isTrace(f.pts[i]) {
			costs[i].attribute(e, r.span)
		} else {
			e.tr.Attribute(r.span, "netsim", r.secs)
		}
	}
	return nil
}

// newFig11 is Figure 11 at the default scale: N=64, the uniform, tornado
// and hotspot patterns, every design the scale supports, the nine rates of
// experiments.Fig11Rates, DefaultSimScale cycles per point.
func newFig11(e *env) workload {
	return fig11(64, []string{"uniform", "tornado", "hotspot"}, experiments.Fig11Rates,
		experiments.DefaultSimScale())
}

// fig11 regenerates Figure 11 at N=n, one experiments.Fig11 table per
// pattern.
func fig11(n int, patterns []string, rates []float64, sc experiments.SimScale) *figure {
	var designs []string
	for _, kind := range design.Names {
		if design.Supports(kind, n) {
			designs = append(designs, kind)
		}
	}
	return &figure{
		nodes:   n,
		designs: designs,
		regen: func(e *env) ([]*stats.Series, error) {
			var out []*stats.Series
			for _, pat := range patterns {
				s, err := experiments.Fig11(n, pat, rates, sc, e.prog)
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			}
			return out, nil
		},
		points: func(e *env, f *figure) []point {
			var pts []point
			for _, pat := range patterns {
				for _, kind := range designs {
					for i, rate := range rates {
						pts = append(pts, point{
							net:  f.nets[kind],
							spec: netSpec{kind, n, e.prog},
							cfg: stringfigure.SessionConfig{Warmup: sc.Warmup, Measure: sc.Measure,
								Seed: stringfigure.PointSeed(e.prog, i), Rate: rate},
							w: stringfigure.SyntheticWorkload{Pattern: pat},
						})
					}
				}
			}
			return pts
		},
		cells: func(tables []*stats.Series, pts []point, runs []pointRun) (int, string) {
			bad, first := 0, ""
			for k, p := range pts {
				t := k / (len(designs) * len(rates))
				i := k % len(rates)
				col := columnOf(tables[t], p.spec.kind)
				r := runs[k].res
				want := r.AvgLatencyNs
				if r.Deadlocked || r.Delivered == 0 {
					want = 0
				}
				if col < 0 || tables[t].Rows[i][col] != want {
					bad++
					if first == "" {
						first = fmt.Sprintf("%s/%s rate %d", patterns[t], p.spec.kind, i)
					}
				}
			}
			return bad, first
		},
	}
}

// newFig12 is Figure 12(a)/(b) at the sfexp default scale
// (experiments.DefaultWorkloadConfig: N=256, 4 sockets x 2,500 ops): the
// eight Table IV workloads on the five Figure 12 designs, closed loop.
func newFig12(e *env) workload {
	wc := experiments.DefaultWorkloadConfig()
	wc.Seed = e.prog
	cfg := stringfigure.SessionConfig{Ops: wc.Ops, Sockets: wc.Sockets, Window: wc.Window,
		Threads: wc.Threads, MaxCycles: wc.MaxCycles, Seed: wc.Seed}
	return &figure{
		nodes:   wc.N,
		designs: experiments.Fig12Designs,
		regen: func(e *env) ([]*stats.Series, error) {
			tp, en, err := experiments.Fig12(nil, wc)
			if err != nil {
				return nil, err
			}
			return []*stats.Series{tp, en}, nil
		},
		points: func(e *env, f *figure) []point {
			var pts []point
			for _, kind := range f.designs {
				for _, wl := range trace.WorkloadNames {
					pts = append(pts, point{
						net:  f.nets[kind],
						spec: netSpec{kind, wc.N, wc.Seed},
						cfg:  cfg,
						w:    stringfigure.TraceWorkload{Workload: wl},
					})
				}
			}
			return pts
		},
		cells: func(tables []*stats.Series, pts []point, runs []pointRun) (int, string) {
			ipc := map[string]map[string]float64{}
			pj := map[string]map[string]float64{}
			for i, p := range pts {
				kind, wl := p.spec.kind, p.w.Name()
				if ipc[kind] == nil {
					ipc[kind], pj[kind] = map[string]float64{}, map[string]float64{}
				}
				ipc[kind][wl], pj[kind][wl] = runs[i].res.IPC, runs[i].res.TotalEnergyPJ
			}
			want := [2][][]float64{
				normalized(ipc, "dm", []string{"odm", "afb", "s2", "sf"}),
				normalized(pj, "afb", []string{"dm", "odm", "s2", "sf"}),
			}
			bad, first := 0, ""
			for t := range want {
				for i, row := range want[t] {
					for j, v := range row {
						if i >= len(tables[t].Rows) || tables[t].Rows[i][j] != v {
							bad++
							if first == "" {
								first = fmt.Sprintf("table %d row %d column %d", t, i, j)
							}
						}
					}
				}
			}
			return bad, first
		},
	}
}

// normalized rebuilds a Figure 12 table from per-design, per-workload
// values: each workload's row divides the listed designs by the base
// design, and a geomean row closes the table, as experiments.Fig12 does.
func normalized(v map[string]map[string]float64, base string, cols []string) [][]float64 {
	var rows [][]float64
	geo := make([][]float64, len(cols))
	for _, wl := range trace.WorkloadNames {
		b := v[base][wl]
		row := make([]float64, len(cols))
		for j, kind := range cols {
			if b > 0 {
				row[j] = v[kind][wl] / b
			}
			geo[j] = append(geo[j], row[j])
		}
		rows = append(rows, row)
	}
	g := make([]float64, len(cols))
	for j := range cols {
		g[j] = stats.GeoMean(geo[j])
	}
	return append(rows, g)
}

// columnOf finds a design's column in a Figure 11 table (the first column
// is the injection rate).
func columnOf(s *stats.Series, kind string) int {
	for i, c := range s.Columns {
		if c == kind {
			return i
		}
	}
	return -1
}
