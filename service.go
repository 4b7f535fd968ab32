package stringfigure

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"

	"repro/internal/jobsvc"
)

// JobSpec is the JSON payload of one simulation-service job: a network to
// build and a rate sweep to run over it. It is the `spec` field of a
// `POST /v1/jobs` submission and the argument of Service.SubmitJob. Each
// rate becomes one sweep point whose session seed derives from Seed and
// the point's index (PointSeed), so a job interrupted by a service
// restart resumes with results bit-identical to an uninterrupted run.
type JobSpec struct {
	// Design, Nodes, Ports and NetSeed build the network (see Options;
	// Design defaults to "sf", Nodes is required).
	Design  string `json:"design,omitempty"`
	Nodes   int    `json:"nodes"`
	Ports   int    `json:"ports,omitempty"`
	NetSeed int64  `json:"net_seed,omitempty"`

	// Workload is a synthetic traffic pattern (Patterns; default
	// "uniform"); Trace instead selects a trace-driven memory workload
	// (TraceWorkloads). Exactly one of the two may be set.
	Workload string `json:"workload,omitempty"`
	Trace    string `json:"trace,omitempty"`

	// Rates are the injection rates swept, one sweep point per entry
	// (default [0.1]; trace jobs typically leave this empty for a single
	// point — the rate is ignored by closed-loop replay but each point
	// still draws a distinct derived seed).
	Rates []float64 `json:"rates,omitempty"`

	// Seed is the sweep's base session seed; Warmup/Measure/PacketFlits/
	// Ops override the SessionConfig defaults when positive.
	Seed        int64 `json:"seed,omitempty"`
	Warmup      int64 `json:"warmup,omitempty"`
	Measure     int64 `json:"measure,omitempty"`
	PacketFlits int   `json:"packet_flits,omitempty"`
	Ops         int   `json:"ops,omitempty"`

	// Telemetry streams interval snapshots onto the job's live stream
	// (GET /v1/jobs/{id}/stream), every TelemetryEvery cycles (default
	// 1000). Telemetry never perturbs results. FlowBuckets adds per-flow
	// deltas and link/router utilization to every streamed snapshot;
	// TraceSampleEvery adds 1-in-K sampled packet-lifecycle traces (see
	// SessionConfig). Both are inert unless Telemetry is set.
	Telemetry        bool  `json:"telemetry,omitempty"`
	TelemetryEvery   int64 `json:"telemetry_every,omitempty"`
	FlowBuckets      int   `json:"flow_buckets,omitempty"`
	TraceSampleEvery int64 `json:"trace_sample_every,omitempty"`

	// Scenario attaches declarative scenarios to every sweep point:
	// churn traces, failure storms, diurnal/bursty rate modulation or
	// the S2 regeneration baseline (see ScenarioSpec; same snake_case
	// JSON shape). Specs are validated at submission time, so an invalid
	// scenario rejects the job instead of failing its first point.
	Scenario []ScenarioSpec `json:"scenario,omitempty"`
}

// sessionConfig assembles the sweep's base session configuration.
func (js JobSpec) sessionConfig() SessionConfig {
	return SessionConfig{
		Seed:             js.Seed,
		Warmup:           js.Warmup,
		Measure:          js.Measure,
		PacketFlits:      js.PacketFlits,
		Ops:              js.Ops,
		TelemetryEvery:   js.TelemetryEvery,
		FlowBuckets:      js.FlowBuckets,
		TraceSampleEvery: js.TraceSampleEvery,
		Scenario:         js.Scenario,
	}
}

// workload resolves the spec's workload.
func (js JobSpec) workload() (Workload, error) {
	switch {
	case js.Trace != "" && js.Workload != "":
		return nil, fmt.Errorf("stringfigure: job spec sets both workload %q and trace %q", js.Workload, js.Trace)
	case js.Trace != "":
		if !slices.Contains(TraceWorkloads(), js.Trace) {
			return nil, fmt.Errorf("stringfigure: unknown trace workload %q (want one of %v)", js.Trace, TraceWorkloads())
		}
		return TraceWorkload{Workload: js.Trace}, nil
	default:
		pattern := js.Workload
		if pattern == "" {
			pattern = "uniform"
		}
		if !slices.Contains(Patterns(), pattern) {
			return nil, fmt.Errorf("stringfigure: unknown traffic pattern %q (want one of %v)", pattern, Patterns())
		}
		return SyntheticWorkload{Pattern: pattern}, nil
	}
}

// rates resolves the sweep's rate axis (one point per rate).
func (js JobSpec) rates() []float64 {
	if len(js.Rates) == 0 {
		return []float64{0.1}
	}
	return js.Rates
}

// validate is the submission-time spec check shared by Plan.
func (js JobSpec) validate() error {
	if js.Nodes < 2 {
		return fmt.Errorf("stringfigure: job spec needs nodes >= 2 (got %d)", js.Nodes)
	}
	if js.Design != "" && !slices.Contains(Designs(), js.Design) {
		return fmt.Errorf("%w: %q (want one of %v)", ErrUnknownDesign, js.Design, Designs())
	}
	if _, err := js.workload(); err != nil {
		return err
	}
	for i, r := range js.Rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("stringfigure: job spec rate %d is %v", i, r)
		}
	}
	if len(js.Scenario) > 0 {
		// Compile against the run's shape at submission time (the run
		// compiles again over the live network): warm-up/measure defaults
		// mirror SessionConfig.fill, trace jobs span MaxCycles.
		warmup, measure := js.Warmup, js.Measure
		if warmup <= 0 {
			warmup = 1000
		}
		if measure <= 0 {
			measure = 4000
		}
		total := warmup + measure
		if js.Trace != "" {
			total = 40_000_000
		}
		sch, err := compileSpecs(js.Scenario, js.Nodes, total, js.Seed)
		if err != nil {
			return err
		}
		if js.Trace != "" && (len(sch.Rates) > 0 || sch.Regen != nil) {
			return fmt.Errorf("%w: rate modulation and regeneration need an open-loop synthetic workload (trace replay is closed-loop)", ErrScenario)
		}
	}
	// A derived per-point seed of exactly 0 cannot be pinned through
	// Point.Seed (0 means "derive"), which would break resume determinism
	// for that point; reject the pathological base seeds that hit it.
	for i := range js.rates() {
		if PointSeed(js.Seed, i) == 0 {
			return fmt.Errorf("stringfigure: job spec seed %d derives seed 0 at point %d; pick another seed", js.Seed, i)
		}
	}
	return nil
}

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// StateDir is the durable state directory (required): the job log and
	// per-job checkpoint journals live here, and a service reopened over
	// the same directory resumes its unfinished jobs.
	StateDir string
	// Cluster, when set, shards every job's sweep points over its
	// connected workers (falling back to in-process execution while it
	// has none) — results are bit-identical either way.
	Cluster *Cluster
	// Token guards the HTTP surface (Authorization: Bearer). Empty
	// accepts every request.
	Token string
	// MaxActive bounds concurrently running jobs (default 2).
	MaxActive int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Service is the simulation-as-a-service front: a persistent multi-tenant
// job coordinator over the sweep machinery, with a durable queue,
// point-level checkpoint/resume and an HTTP/JSON API (Handler). Submit a
// JobSpec and the service sweeps it — locally or over an attached
// Cluster — journaling every completed point, so killing and reopening
// the service (cmd/sfserve restarts included) re-runs only unfinished
// points and merges results bit-identical to an uninterrupted run.
type Service struct {
	svc *jobsvc.Service
}

// JobStatus is one job's status snapshot, as returned by SubmitJob/Job
// and serialized by the HTTP API. States: "queued", "running", "done",
// "failed", "canceled".
type JobStatus struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Priority  int             `json:"priority"`
	Spec      json.RawMessage `json:"spec"`
	Points    int             `json:"points"`
	Completed int             `json:"completed"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
}

func statusOf(j jobsvc.Job) JobStatus {
	return JobStatus{
		ID: j.ID, Tenant: j.Tenant, Priority: j.Priority, Spec: j.Spec,
		Points: j.Points, Completed: j.Completed, State: string(j.State), Error: j.Error,
	}
}

// ErrUnknownJob reports a job id the service does not know.
var ErrUnknownJob = errors.New("stringfigure: unknown job")

func mapJobErr(err error) error {
	if errors.Is(err, jobsvc.ErrUnknownJob) {
		return fmt.Errorf("%w: %v", ErrUnknownJob, err)
	}
	return err
}

// NewService opens (or resumes) a simulation job service over a state
// directory. Jobs left queued or running by a previous instance dispatch
// again immediately, skipping their checkpointed points. Close the
// service to stop; cmd/sfserve wraps this in a binary.
func NewService(cfg ServiceConfig) (*Service, error) {
	svc, err := jobsvc.Open(jobsvc.Config{
		StateDir:  cfg.StateDir,
		Executor:  &sweepExecutor{cluster: cfg.Cluster},
		MaxActive: cfg.MaxActive,
		Token:     cfg.Token,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("stringfigure: job service: %w", err)
	}
	return &Service{svc: svc}, nil
}

// SubmitJob plans and enqueues one sweep job for a tenant (empty tenant
// submits as "default"; higher priority runs first within a tenant, and
// tenants share the service round-robin).
func (s *Service) SubmitJob(tenant string, priority int, spec JobSpec) (JobStatus, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	j, err := s.svc.Submit(tenant, priority, raw)
	if err != nil {
		return JobStatus{}, err
	}
	return statusOf(j), nil
}

// Job returns one job's status.
func (s *Service) Job(id string) (JobStatus, error) {
	j, err := s.svc.Get(id)
	if err != nil {
		return JobStatus{}, mapJobErr(err)
	}
	return statusOf(j), nil
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []JobStatus {
	js := s.svc.List()
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = statusOf(j)
	}
	return out
}

// CancelJob cancels a job (queued jobs immediately; running jobs abort at
// the next point boundary, keeping their checkpointed results readable).
func (s *Service) CancelJob(id string) error {
	return mapJobErr(s.svc.Cancel(id))
}

// JobResults returns a job's checkpointed results ordered by point index
// — partial while it runs, complete once done. Results decode from the
// journal, so a resumed job's slice is bit-identical to a fresh run's.
func (s *Service) JobResults(id string) ([]Result, error) {
	prs, err := s.svc.Results(id)
	if err != nil {
		return nil, mapJobErr(err)
	}
	out := make([]Result, 0, len(prs))
	for _, pr := range prs {
		var r Result
		if err := json.Unmarshal(pr.Result, &r); err != nil {
			return nil, fmt.Errorf("stringfigure: decode journaled result for point %d: %w", pr.Point, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Handler returns the HTTP/JSON front door (see internal/jobsvc for the
// route table): POST /v1/jobs submits {tenant, priority, spec}, GET
// /v1/jobs[/{id}[/results]] reads state, GET /v1/jobs/{id}/stream is the
// NDJSON live stream, DELETE /v1/jobs/{id} cancels. ServiceConfig.Token
// gates every route.
func (s *Service) Handler() http.Handler { return s.svc.Handler() }

// Close stops the service: running jobs are interrupted (and stay
// resumable — the next NewService over the same state directory picks
// them up at their last checkpoint), journals are flushed.
func (s *Service) Close() error { return s.svc.Close() }

// WatchService exposes the job service's per-tenant queue depth, running
// jobs and checkpointed-point throughput on this metrics endpoint
// (sfserve_* families), alongside whatever simulation and cluster
// families already live there.
func (m *MetricsServer) WatchService(s *Service) { s.svc.RegisterMetrics(m.reg) }

// sweepExecutor adapts the sweep machinery to the jobsvc Executor
// contract. Determinism: pending points carry explicit per-point seeds
// derived from the spec's base seed and each point's GLOBAL index
// (PointSeed), so a resumed job — which runs only a subset — produces
// sessions identical to the full sweep's, and the journal merge is
// byte-identical to an uninterrupted run.
type sweepExecutor struct {
	cluster *Cluster
}

// Plan implements jobsvc.Executor.
func (e *sweepExecutor) Plan(raw json.RawMessage) (int, error) {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 0, fmt.Errorf("stringfigure: decode job spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return 0, err
	}
	return len(spec.rates()), nil
}

// Run implements jobsvc.Executor.
func (e *sweepExecutor) Run(ctx context.Context, raw json.RawMessage, pending []int, emit jobsvc.Emitter) error {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("stringfigure: decode job spec: %w", err)
	}
	w, err := spec.workload()
	if err != nil {
		return err
	}
	net, err := newFromOptions(Options{
		Design:  spec.Design,
		Nodes:   spec.Nodes,
		Ports:   spec.Ports,
		Seed:    spec.NetSeed,
		Cluster: e.cluster,
	})
	if err != nil {
		return err
	}
	rates := spec.rates()
	cfg := spec.sessionConfig()
	if spec.Telemetry && emit.Telemetry != nil {
		sink := emit.Telemetry
		cfg = cfg.WithTelemetry(spec.TelemetryEvery, func(t TelemetrySnapshot) {
			if b, err := json.Marshal(t); err == nil {
				sink(b)
			}
		})
	}
	// The pending subset runs with explicit seeds pinned to the global
	// indices — Point.Seed overrides the position-derived seed, which
	// would otherwise shift when earlier points are already checkpointed.
	points := make([]Point, len(pending))
	for k, i := range pending {
		points[k] = Point{Workload: w, Rate: rates[i], Seed: PointSeed(spec.Seed, i)}
	}
	var firstErr error
	k := 0
	for res := range net.SweepDistributedContext(ctx, cfg, points) {
		i := pending[k]
		k++
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("point %d: %w", i, res.Err)
			}
			continue
		}
		b, err := json.Marshal(res)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("point %d: encode result: %w", i, err)
			}
			continue
		}
		emit.Result(i, b)
	}
	if ctx.Err() != nil {
		// Interrupted (service shutdown or cancel): report the bare
		// context error so the job stays resumable rather than failed.
		return ctx.Err()
	}
	return firstErr
}
