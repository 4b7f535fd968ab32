package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run reports each one: a layer that does no work on a workload
// reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"design.build_s", "s"}, {"design.builds", "count"},
	{"routing.candidates_ns", "ns"},
	{"netsim.new_s", "s"}, {"netsim.cycles_per_s", "1/s"}, {"netsim.flits_delivered", "count"},
	{"netsim.escape_ratio", "ratio"}, {"netsim.deadlocked_points", "count"},
	{"trace.generate_s", "s"}, {"trace.generate_calls", "count"}, {"trace.distinct_inputs", "count"},
	{"cache.accesses", "count"}, {"cache.ns_per_access", "ns"}, {"cache.miss_rate", "ratio"},
	{"memsys.replay_s", "s"}, {"memsys.probe_s", "s"}, {"memsys.sim_cycles", "count"},
	{"memsys.cycles_per_s", "1/s"}, {"memsys.reads", "count"},
	{"session.run_s.plain", "s"}, {"session.run_s.scenario", "s"}, {"session.points", "count"},
	{"sweep.busy_ratio", "ratio"},
	{"jobsvc.submit_s", "s"}, {"jobsvc.queue_wait_s", "s"}, {"jobsvc.results_s", "s"},
	{"jobsvc.result_bytes", "B"}, {"jobsvc.overhead_ratio", "ratio"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
	{"traced.wall_s", "s"},
}

// completeLayers fills in the layers that did no work and rejects any
// metric outside perLayer.
func completeLayers(m metrics) error {
	known := map[string]string{}
	for _, l := range perLayer {
		known[l.name] = l.unit
		if _, ok := m[l.name]; !ok {
			m.set(l.name, l.unit, 0)
		}
	}
	for name, v := range m {
		if unit, ok := known[name]; !ok || unit != v.Unit {
			return fmt.Errorf("metric %s (%s) is not in the per-layer list", name, v.Unit)
		}
	}
	return nil
}

// tableLayers are the table's rows, in the order of a request's path.
var tableLayers = []string{"design", "routing", "netsim", "trace", "cache", "memsys", "session", "sweep", "jobsvc", "bench"}

// whereRow is one traced run's contribution to the table.
type whereRow struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Self     map[string]float64 `json:"self_s"`
	AllocMB  float64            `json:"alloc_mb"`
	GCCycles float64            `json:"gc_cycles"`
	Traced   float64            `json:"traced_wall_s"`
}

// writeTrace writes the traced run's spans and its table row.
func writeTrace(e *env, m metrics) error {
	dir := filepath.Join(e.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := e.tr.Write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed))); err != nil {
		return err
	}
	return writeJSON(filepath.Join(e.out, "where", e.name+".json"), whereRow{
		Workload: e.name, Seed: e.seed, Self: SelfTimes(e.tr.Spans()),
		AllocMB: m["runtime.alloc_mb"].Value, GCCycles: m["runtime.gc_cycles"].Value,
		Traced: m["traced.wall_s"].Value,
	})
}

// whereTable prints the where-the-time-goes table from the latest traced
// run of each workload recorded under out.
func whereTable(out string, w io.Writer) error {
	files, err := filepath.Glob(filepath.Join(out, "where", "*.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no traced runs under %s", out)
	}
	var rows []whereRow
	for _, f := range files {
		var r whereRow
		if err := readJSON(f, &r); err != nil {
			return err
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].Workload < rows[k].Workload })
	walls := map[string]float64{}
	if err := readJSON(filepath.Join(out, "walls.json"), &walls); err != nil {
		return err
	}

	head := []string{"layer"}
	for _, r := range rows {
		head = append(head, fmt.Sprintf("%s (seed %d)", r.Workload, r.Seed))
	}
	fmt.Fprintf(w, "| %s |\n|%s\n", strings.Join(head, " | "), strings.Repeat("---|", len(head)))
	for _, layer := range tableLayers {
		cells := []string{layer}
		for _, r := range rows {
			var total float64
			for _, v := range r.Self {
				total += v
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*ratio(r.Self[layer], total)))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	line := func(label string, f func(r whereRow) string) {
		cells := []string{label}
		for _, r := range rows {
			cells = append(cells, f(r))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	line("runtime.alloc_mb", func(r whereRow) string { return fmt.Sprintf("%.0f", r.AllocMB) })
	line("runtime.gc_cycles", func(r whereRow) string { return fmt.Sprintf("%.0f", r.GCCycles) })
	line("traced wall_s", func(r whereRow) string { return fmt.Sprintf("%.2f", r.Traced) })
	line("untraced wall_s", func(r whereRow) string {
		if v, ok := walls[digestKey(r.Workload, r.Seed)]; ok {
			return fmt.Sprintf("%.2f", v)
		}
		return "n/a"
	})
	return nil
}
