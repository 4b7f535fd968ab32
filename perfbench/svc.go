package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	stringfigure "repro"
	"repro/internal/trace"
)

// svcJob is one job of the svc_jobs mix.
type svcJob struct {
	class string // plain, storm, churn, regen or trace
	spec  stringfigure.JobSpec
}

// jobMix generates the svc_jobs mix from the workload seed. The classes,
// their counts and the plain sweeps' design x scale x pattern grid are
// fixed, so every seed asks for the same kinds of work; the seed picks
// the order, the pairings of the smaller classes, storm centres and
// every network and session seed.
func jobMix(seed int64) []svcJob {
	r := rand.New(rand.NewSource(seed))
	patterns := stringfigure.Patterns()
	seeds := func(js *stringfigure.JobSpec) {
		js.NetSeed = r.Int63n(1<<31) + 1
		js.Seed = r.Int63n(1<<31) + 1
	}
	var jobs []svcJob
	add := func(class string, js stringfigure.JobSpec) {
		seeds(&js)
		jobs = append(jobs, svcJob{class, js})
	}
	// Plain rate sweeps: every design at two scales under every pattern.
	for _, d := range stringfigure.Designs() {
		for _, n := range []int{32, 64} {
			for _, pat := range patterns {
				add("plain", stringfigure.JobSpec{Design: d, Nodes: n, Workload: pat,
					Rates: []float64{0.05, 0.15, 0.25}, Warmup: 300, Measure: 1500})
			}
		}
	}
	// Correlated failure storms on sf: a seeded region gates off mid-run.
	for i := 0; i < 10; i++ {
		add("storm", stringfigure.JobSpec{Design: "sf", Nodes: 32, Workload: "uniform",
			Rates: []float64{0.1}, Warmup: 300, Measure: 4000,
			Scenario: []stringfigure.ScenarioSpec{stringfigure.FailureStorm(1000+int64(r.Intn(1000)), -1, 2, 0)}})
	}
	// Continuous churn on sf: nodes gate off and back on, epochs apart.
	for i := 0; i < 4; i++ {
		add("churn", stringfigure.JobSpec{Design: "sf", Nodes: 16, Workload: "uniform",
			Rates: []float64{0.05}, Warmup: 300, Measure: 64000,
			Scenario: []stringfigure.ScenarioSpec{stringfigure.Churn(31250, 1)}})
	}
	// S2 regeneration: the non-reconfigurable baseline rebuilds mid-run.
	for _, pat := range patterns {
		add("regen", stringfigure.JobSpec{Design: "s2", Nodes: 32, Workload: pat,
			Rates: []float64{0.05, 0.15}, Warmup: 400, Measure: 1600,
			Scenario: []stringfigure.ScenarioSpec{stringfigure.RegenerateS2(1000, 2+r.Intn(4), 500)}})
	}
	// Small trace jobs: each Table IV workload twice, on seeded designs.
	// They are the slowest class and more than a tenth of the mix, so the
	// 90th percentile falls inside them rather than between two classes.
	traceDesigns := []string{"dm", "odm", "s2", "sf"}
	for range 2 {
		for _, wl := range trace.WorkloadNames {
			add("trace", stringfigure.JobSpec{Design: traceDesigns[r.Intn(len(traceDesigns))], Nodes: 32,
				Trace: wl, Ops: 300})
		}
	}
	r.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs
}

// jobPoints is the in-process equivalent of a job: the network it builds
// and the sweep points it runs, with the per-point seeds the service pins
// (PointSeed of the spec seed and the point's index).
func jobPoints(js stringfigure.JobSpec) ([]stringfigure.Option, stringfigure.SessionConfig, []stringfigure.Point) {
	opts := []stringfigure.Option{stringfigure.WithNodes(js.Nodes), stringfigure.WithSeed(js.NetSeed)}
	if js.Design != "" {
		opts = append(opts, stringfigure.WithDesign(js.Design))
	}
	if js.Ports > 0 {
		opts = append(opts, stringfigure.WithPorts(js.Ports))
	}
	cfg := stringfigure.SessionConfig{Seed: js.Seed, Warmup: js.Warmup, Measure: js.Measure,
		PacketFlits: js.PacketFlits, Ops: js.Ops, Scenario: js.Scenario}
	var w stringfigure.Workload = stringfigure.SyntheticWorkload{Pattern: js.Workload}
	if js.Trace != "" {
		w = stringfigure.TraceWorkload{Workload: js.Trace}
	} else if js.Workload == "" {
		w = stringfigure.SyntheticWorkload{Pattern: "uniform"}
	}
	rates := js.Rates
	if len(rates) == 0 {
		rates = []float64{0.1}
	}
	pts := make([]stringfigure.Point, len(rates))
	for i, rate := range rates {
		pts[i] = stringfigure.Point{Workload: w, Rate: rate, Seed: stringfigure.PointSeed(js.Seed, i)}
	}
	return opts, cfg, pts
}

// svc is the svc_jobs workload: one client in a closed loop submits the
// job mix over loopback HTTP to a Service on a fresh state directory,
// waits on each job's stream until it ends, then reads its results.
type svc struct {
	jobs    []svcJob
	dirs    []string
	service *stringfigure.Service
	srv     *http.Server
	done    chan error
	base    string
	client  *http.Client

	results   [][]json.RawMessage // per job, from the first repetition
	latencies []float64
	submit    []float64
	wait      []float64
	fetch     []float64
	bytes     float64
	spans     [][]int // each job's stream spans, one per repetition
}

func newSvc(e *env) workload {
	return &svc{jobs: jobMix(e.prog)}
}

// setup opens the Service on a fresh state directory, serves it on a
// loopback port and waits for the answer to its first request.
func (s *svc) setup(e *env) error {
	dir, err := os.MkdirTemp(e.out, "svc-state-")
	if err != nil {
		return err
	}
	s.dirs = append(s.dirs, dir)
	sp := e.tr.Start(e.phase, "jobsvc", "stringfigure.NewService")
	s.service, err = stringfigure.NewService(stringfigure.ServiceConfig{StateDir: dir})
	e.tr.End(sp)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: s.service.Handler()}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	sp = e.tr.Start(e.phase, "jobsvc", "GET /v1/jobs")
	defer e.tr.End(sp)
	resp, err := s.client.Get(s.base + "/v1/jobs")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs: %s", resp.Status)
	}
	return nil
}

// close stops the server and the service and removes their state.
func (s *svc) close() {
	if s.srv != nil {
		s.srv.Close()
		<-s.done
		s.client.CloseIdleConnections()
		s.service.Close()
		s.srv, s.service = nil, nil
	}
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
	s.dirs = nil
}

// jobRecord is what the client saw of one job.
type jobRecord struct {
	state               string
	err                 string
	results             []json.RawMessage
	submit, wait, fetch float64
	bytes               int
	latency             float64
	streamSpan          int
}

func (s *svc) unit(e *env) (unitResult, error) {
	if s.srv == nil {
		if err := s.setup(e); err != nil {
			return unitResult{}, err
		}
	}
	defer s.close()
	var u unitResult
	h := sha256.New()
	first := s.results == nil
	start := time.Now()
	for i, j := range s.jobs {
		rec := s.runJob(e, j.spec)
		u.attempted++
		u.jobs = append(u.jobs, rec.latency)
		if rec.state != "done" {
			u.failed++
			fmt.Fprintf(e.log, "perfbench: job %d (%s) ended %s: %s\n", i, j.class, rec.state, rec.err)
		}
		fmt.Fprintf(h, "job %d\n", i)
		for _, r := range rec.results {
			h.Write(r)
			h.Write([]byte("\n"))
		}
		if first {
			s.results = append(s.results, rec.results)
			s.submit = append(s.submit, rec.submit)
			s.fetch = append(s.fetch, rec.fetch)
			s.latencies = append(s.latencies, rec.latency)
			s.wait = append(s.wait, rec.wait)
			s.bytes += float64(rec.bytes)
			s.spans = append(s.spans, nil)
		}
		s.spans[i] = append(s.spans[i], rec.streamSpan)
	}
	u.wall = time.Since(start).Seconds()
	u.rss = peakRSSMB()
	u.digest = hex.EncodeToString(h.Sum(nil))
	byClass := map[string][]float64{}
	for i, j := range s.jobs {
		byClass[j.class] = append(byClass[j.class], u.jobs[i])
	}
	for _, c := range sortedKeys(byClass) {
		fmt.Fprintf(e.log, "perfbench: %-5s jobs=%d median latency %.4fs\n", c, len(byClass[c]), median(byClass[c]))
	}
	return u, nil
}

// runJob submits one job, follows its stream to the end and reads its
// results, timing each request.
func (s *svc) runJob(e *env, spec stringfigure.JobSpec) (rec jobRecord) {
	job := e.tr.Start(e.phase, "bench", "job")
	defer e.tr.End(job)
	start := time.Now()
	defer func() { rec.latency = time.Since(start).Seconds() }()

	// A JobSpec holds only plain fields; marshalling it cannot fail.
	body, _ := json.Marshal(map[string]any{"tenant": "bench", "spec": spec})
	sp := e.tr.Start(job, "jobsvc", "POST /v1/jobs")
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		e.tr.End(sp)
		return jobRecord{state: "unsubmitted", err: err.Error()}
	}
	var st stringfigure.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	rec.submit = time.Since(start).Seconds()
	e.tr.End(sp)
	if resp.StatusCode != http.StatusCreated || derr != nil {
		return jobRecord{state: "rejected", err: fmt.Sprintf("%s %v", resp.Status, derr)}
	}
	// The service dispatches inside Submit when a slot is free; a job the
	// response still reports queued waited until its first stream record.
	submitted := time.Now()
	queued := st.State == "queued"

	sp = e.tr.Start(job, "jobsvc", "GET /v1/jobs/{id}/stream")
	rec.streamSpan = sp
	rec.state, rec.err = s.follow(st.ID, func() {
		if queued && rec.wait == 0 {
			rec.wait = time.Since(submitted).Seconds()
		}
	})
	e.tr.End(sp)

	sp = e.tr.Start(job, "jobsvc", "GET /v1/jobs/{id}/results")
	t := time.Now()
	results, n, err := s.fetchResults(st.ID)
	rec.fetch = time.Since(t).Seconds()
	e.tr.End(sp)
	if err != nil && rec.state == "done" {
		rec.state, rec.err = "unreadable", err.Error()
	}
	rec.results, rec.bytes = results, n
	return rec
}

// follow reads a job's NDJSON stream until its terminal status record,
// calling first when the first record arrives.
func (s *svc) follow(id string, first func()) (state, errText string) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return "stream", err.Error()
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		first()
		var rec struct {
			Type  string `json:"type"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return "stream", err.Error()
		}
		if rec.Type == "status" {
			return rec.State, rec.Error
		}
	}
	if err := sc.Err(); err != nil {
		return "stream", err.Error()
	}
	return "stream", "stream ended without a status record"
}

// fetchResults reads a job's results, ordered by point, and the body size.
func (s *svc) fetchResults(id string) ([]json.RawMessage, int, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(b), fmt.Errorf("results: %s", resp.Status)
	}
	var prs []struct {
		Point  int             `json:"point"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &prs); err != nil {
		return nil, len(b), err
	}
	out := make([]json.RawMessage, len(prs))
	for i, pr := range prs {
		if pr.Point != i {
			return nil, len(b), errors.New("results are not ordered by point")
		}
		out[i] = pr.Result
	}
	return out, len(b), nil
}

// finish runs every job's spec in process — stringfigure.New and
// Network.SweepAll on the worker count the service uses — and counts each
// job whose results differ from the service's as failed. When tracing it
// also re-runs the points one Session.Run each and probes the layers.
func (s *svc) finish(e *env, o *outcome) error {
	var refSecs, latSecs float64
	var pts []point
	var owner []int // job index of each point
	var specs []netSpec
	sweeps := make([]float64, len(s.jobs))
	for i, j := range s.jobs {
		opts, cfg, points := jobPoints(j.spec)
		start := time.Now()
		sp := e.tr.Start(e.phase, "design", "stringfigure.New")
		e.tr.OffTable(sp)
		net, err := stringfigure.New(opts...)
		e.tr.End(sp)
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		build := time.Since(start).Seconds()
		sp = e.tr.Start(e.phase, "sweep", "Network.SweepAll")
		e.tr.OffTable(sp)
		t := time.Now()
		res := net.SweepAll(cfg, points, 0)
		sweeps[i] = time.Since(t).Seconds()
		e.tr.End(sp)
		refSecs += build + sweeps[i]
		latSecs += s.latencies[i]
		s.attribute(e, i, "design", build)
		if !sameResults(res, s.results[i]) {
			o.fail("job %d (%s): service results differ from the in-process sweep", i, j.class)
		}
		spec := netSpec{j.spec.Design, j.spec.Nodes, j.spec.NetSeed}
		specs = append(specs, spec)
		for _, p := range points {
			pc := cfg
			pc.Seed, pc.Rate = p.Seed, p.Rate
			pts = append(pts, point{net: net, spec: spec, cfg: pc, w: p.Workload, scenario: len(cfg.Scenario) > 0})
			owner = append(owner, i)
		}
	}
	if e.tr == nil {
		return nil
	}
	m := o.layer
	m.set("jobsvc.submit_s", "s", median(s.submit))
	m.set("jobsvc.queue_wait_s", "s", median(s.wait))
	m.set("jobsvc.results_s", "s", median(s.fetch))
	m.set("jobsvc.result_bytes", "B", s.bytes)
	m.set("jobsvc.overhead_ratio", "ratio", 1-ratio(refSecs, latSecs))
	o.addDesign(LayerTime(e.tr.Spans(), "design", "stringfigure.New"))

	if err := probeNetworks(e, o, specs); err != nil {
		return err
	}
	parent := e.tr.Start(e.phase, "bench", "Session.Run pass")
	e.tr.OffTable(parent)
	runs := runPoints(e, parent, pts)
	e.tr.End(parent)
	for i, r := range runs {
		if r.err != nil {
			o.fail("job %d: Session.Run: %v", owner[i], r.err)
		}
	}
	sessionMetrics(e, o, pts, runs, median(o.walls))
	costs, err := probeTraces(e, o, pts, runs)
	if err != nil {
		return err
	}
	// Each job's stream span covers the service running it; the in-process
	// sweep of the same spec says how much of that was simulation.
	for i, j := range s.jobs {
		if j.spec.Trace == "" {
			s.attribute(e, i, "netsim", sweeps[i])
		}
	}
	for i, c := range costs {
		if isTrace(pts[i]) {
			job := owner[i]
			for _, sp := range s.spans[job] {
				c.attribute(e, sp)
			}
			s.attribute(e, job, "session", sweeps[job]-c.gen-c.memsys)
		}
	}
	return nil
}

// attribute hands secs of job i's stream span in every repetition to
// layer: each repetition ran the same spec.
func (s *svc) attribute(e *env, i int, layer string, secs float64) {
	for _, sp := range s.spans[i] {
		e.tr.Attribute(sp, layer, secs)
	}
}

// sameResults reports whether in-process results encode to the bytes the
// service journaled.
func sameResults(res []stringfigure.Result, got []json.RawMessage) bool {
	if len(res) != len(got) {
		return false
	}
	for i, r := range res {
		if r.Err != nil {
			return false
		}
		b, err := json.Marshal(r)
		if err != nil || !bytes.Equal(b, got[i]) {
			return false
		}
	}
	return true
}
