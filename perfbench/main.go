// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator, checks the simulated outputs, and prints
// the metrics as one JSON object on its last line of output:
//
//	perfbench -out .bench_build -workload fig12_trace -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run; with
// -trace 1 it runs the same workload and seed again with every layer call
// it makes wrapped in a span, and reports the per-layer metrics. The
// wrapper script run.sh builds this command from the checkout's sources.
// README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the timed phase. Each repetition
// starts after a forced collection, so a GC cycle owed to earlier
// allocation does not land inside it.
const setupReps = 15

// workload is one benchmark workload. execute calls setup setupReps
// times, then unit until the run has measured for -seconds (at least
// once), then finish.
type workload interface {
	// setup builds what the timed phase needs (networks, a service).
	setup(e *env) error
	// unit runs one repetition of the timed phase.
	unit(e *env) (unitResult, error)
	// finish checks the outputs against an independent in-process run
	// and, when tracing, measures the layers; it may add metrics.
	finish(e *env, out *outcome) error
	// close releases what setup acquired.
	close()
}

// unitResult is what one repetition of the timed phase measured.
type unitResult struct {
	wall      float64   // seconds until the figure or the last job's results
	rss       float64   // peak RSS in MB when the user-visible part ended
	jobs      []float64 // per-job latencies, seconds
	digest    string    // SHA-256 of the simulated outputs
	attempted int       // operations run: points, cells or jobs
	failed    int       // operations that failed or disagreed
}

// env is the run's configuration and shared state.
type env struct {
	name    string
	seed    int64 // the -seed argument
	prog    int64 // the program seed derived from it
	seconds float64
	workers int
	out     string // directory for state, spans and digests
	tr      *Tracer
	root    int // root span of the traced run
	phase   int // span of the current phase
	log     io.Writer
}

// outcome accumulates a run's results.
type outcome struct {
	attempted, failed int
	digest            string
	walls, jobs       []float64
	rss               float64
	setups            []float64
	layer             metrics
	notes             []string
}

// note records a line printed ahead of the result object.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note("FAILED: "+format, args...)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(e *env) workload{
	"fig12_trace": newFig12,
	"fig11_synth": newFig11,
	"svc_jobs":    newSvc,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig12_trace, fig11_synth or svc_jobs")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "measure at least this long")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	out := fs.String("out", ".bench_build", "directory for run state")
	table := fs.Bool("where-table", false, "print the where-the-time-goes table from the traced runs recorded under -out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *table {
		if err := whereTable(*out, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload fig12_trace|fig11_synth|svc_jobs, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		name:    *name,
		seed:    *seed,
		prog:    programSeed(*seed),
		seconds: *seconds,
		workers: runtime.GOMAXPROCS(0),
		out:     *out,
		log:     stderr,
	}
	if *traced == 1 {
		e.tr = NewTracer(fmt.Sprintf("%s-seed%d-%d", *name, *seed, time.Now().UnixNano()))
	}
	res, err := execute(e, mk(e))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	if err := enc.Encode(res.result); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the object printed on the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is a finished run: the result and the lines printed before it.
type report struct {
	result result
	notes  []string
}

// execute runs one workload end to end and assembles its report.
func execute(e *env, w workload) (*report, error) {
	defer w.close()
	o := &outcome{layer: metrics{}}
	e.root = e.tr.Start(0, "bench", "run "+e.name)

	e.phase = e.tr.Start(e.root, "bench", "setup")
	e.tr.OffTable(e.phase)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	e.tr.End(e.phase)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.phase = e.tr.Start(e.root, "bench", "workload")
	start := time.Now()
	for len(o.walls) == 0 || time.Since(start).Seconds() < e.seconds {
		u, err := w.unit(e)
		if err != nil {
			return nil, err
		}
		if len(o.walls) == 0 {
			o.rss = u.rss
		}
		o.walls = append(o.walls, u.wall)
		o.jobs = append(o.jobs, u.jobs...)
		o.attempted += u.attempted
		o.failed += u.failed
		switch {
		case o.digest == "":
			o.digest = u.digest
		case u.digest != o.digest:
			o.fail("digest %s of repetition %d differs from %s", u.digest, len(o.walls), o.digest)
		}
	}
	e.tr.End(e.phase)
	runtime.ReadMemStats(&after)

	e.phase = e.tr.Start(e.root, "bench", "check")
	e.tr.OffTable(e.phase)
	if err := w.finish(e, o); err != nil {
		return nil, err
	}
	e.tr.End(e.phase)
	e.tr.End(e.root)

	checkDigest(e, o)
	o.note("digest sha256:%s workload=%s seed=%d", o.digest, e.name, e.seed)
	m := metrics{}
	if e.tr == nil {
		p50, err := percentile(o.jobs, 0.5)
		if err != nil {
			return nil, fmt.Errorf("job_latency_p50_s: %w", err)
		}
		p90, err := percentile(o.jobs, 0.9)
		if err != nil {
			return nil, fmt.Errorf("job_latency_p90_s: %w", err)
		}
		m.set("setup_s", "s", median(o.setups))
		m.set("wall_s", "s", median(o.walls))
		m.set("peak_rss_mb", "MB", o.rss)
		m.set("job_latency_p50_s", "s", p50)
		m.set("job_latency_p90_s", "s", p90)
		o.note("samples: setup_s=%d wall_s=%d job_latency=%d", len(o.setups), len(o.walls), len(o.jobs))
		if err := recordWall(e, median(o.walls)); err != nil {
			return nil, err
		}
	} else {
		m = o.layer
		// Per repetition: how many repetitions fit in -seconds depends on
		// the host's speed.
		reps := float64(len(o.walls))
		m.set("runtime.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/reps)
		m.set("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC)/reps)
		m.set("traced.wall_s", "s", median(o.walls))
		if err := completeLayers(m); err != nil {
			return nil, err
		}
		if err := writeTrace(e, m); err != nil {
			return nil, err
		}
	}
	return &report{
		result: result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m},
		notes:  o.notes,
	}, nil
}

// programSeed derives the seed the simulator receives from the benchmark
// seed (splitmix64), so nearby benchmark seeds give unrelated inputs. It
// is never 0, which the simulator reads as "derive a seed".
func programSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

// peakRSSMB is the process's peak resident set size so far. A unit reads
// it as soon as the user-visible part of its work ends (the figure, or the
// last job's results), so the benchmark's own re-runs and checks after that
// point do not count towards peak_rss_mb.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// writeJSON writes v to path through a temporary file and a rename, so a
// reader never sees a partial file.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readJSON decodes path into v; a missing file leaves v untouched.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
