package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/shard"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// Seed-stream offsets, so a server mission and a CLI run of the same
// spec consume identical randomness: the deployment and field draw from
// Seed itself, blob shapes from Seed+2, the crash schedule from Seed+3,
// the churn schedule from Seed+4 (cmd/wsnsim's shard engine reaches the
// last two through EngineConfig, its physical engine the churn stream
// through ChurnSchedule).
const (
	seedField  = 2
	seedCrash  = 3
	seedChurn  = 4
	deployTrys = 100
)

// churnHorizon is the window a mission's churn schedule covers: 4x the
// grid side spans the active phase of both workloads on the
// one-node-per-cell timescale (the convention wsnsim's shard engine
// established).
func churnHorizon(side int) sim.Time { return sim.Time(4 * int64(side)) }

// FloodSummary is the flood mission's answer as served to clients:
// every deterministic counter of shard.Result except the per-node
// vectors, which the checksum covers.
type FloodSummary struct {
	Nodes      int     `json:"nodes"`
	Floods     int     `json:"floods"`
	Origins    []int   `json:"origins"`
	Reached    []int64 `json:"reached"`
	Forwards   int64   `json:"forwards"`
	Ignored    int64   `json:"ignored"`
	Sent       int64   `json:"sent"`
	Delivered  int64   `json:"delivered"`
	Dropped    int64   `json:"dropped"`
	Completion int64   `json:"completion"`
	Deaths     int     `json:"deaths"`
	Suspends   int64   `json:"suspends"`
	Resumes    int64   `json:"resumes"`
	Energy     int64   `json:"energy"`
}

// LabelSummary is the labeling mission's answer: the exfiltrated
// region count and coverage plus the protocol and radio totals. A
// stalled run (hazards broke the single-shot reduction tree) reports
// stalled=true with zero region fields.
type LabelSummary struct {
	Side         int   `json:"side"`
	Levels       int   `json:"levels"`
	Stalled      bool  `json:"stalled"`
	Regions      int   `json:"regions"`
	CoveredCells int   `json:"covered_cells"`
	FeatureCells int   `json:"feature_cells"`
	FinalAt      int64 `json:"final_at"`
	Completion   int64 `json:"completion"`
	Msgs         int64 `json:"msgs"`
	Hops         int64 `json:"hops"`
	Sent         int64 `json:"sent"`
	Delivered    int64 `json:"delivered"`
	Dropped      int64 `json:"dropped"`
	Deaths       int   `json:"deaths"`
	Suspends     int64 `json:"suspends"`
	Resumes      int64 `json:"resumes"`
	Energy       int64 `json:"energy"`
}

// Outcome is the result document a mission serves: the canonical spec
// it answers (so a client can verify what was computed), the digest it
// is cached under, one workload summary, and the engine checksum that
// folds every per-node vector and the canonical trace into one witness.
type Outcome struct {
	Version    string          `json:"version"`
	Digest     string          `json:"digest"`
	Spec       json.RawMessage `json:"spec"`
	Flood      *FloodSummary   `json:"flood,omitempty"`
	Labeling   *LabelSummary   `json:"labeling,omitempty"`
	Checksum   string          `json:"checksum"`
	TraceBytes int             `json:"trace_bytes"`
}

// EngineConfig translates a spec over n nodes into the shard package's
// config: hazards derived from the seed streams, execution strategy
// passed through, and the live sink attached when streaming. A
// mission's crash schedule is made here and its churn schedule by
// ChurnSchedule, nowhere else: Execute calls it on the normalized spec,
// and cmd/wsnsim's shard engine on the spec its flags describe, so the
// CLI and the server run the same schedules.
func EngineConfig(s *Spec, n int, sink trace.Sink) (shard.Config, error) {
	cfg := shard.Config{
		Shards:   s.Shards,
		Workers:  s.Workers,
		Loss:     s.Loss,
		Burst:    s.Burst.model(),
		Seed:     s.Seed,
		Capacity: cost.Energy(s.Capacity),
		Deplete:  s.Deplete,
		Trace:    s.Trace,
		Sink:     sink,
	}
	if s.CrashFrac > 0 {
		sched, err := fault.Random(n, s.CrashFrac, sim.Time(s.CrashWindow), s.Seed+seedCrash)
		if err != nil {
			return cfg, err
		}
		cfg.Crashes = sched
	}
	cfg.Churn = ChurnSchedule(n, s.ChurnRate, s.DutyPeriod, s.DutyOn, churnHorizon(s.Side), s.Seed)
	return cfg, nil
}

// ChurnSchedule is the churn of a mission of the given seed over n
// nodes until horizon: a Poisson sleep/wake process at rate, drawn from
// the seed's churn stream, merged with a staggered duty cycle (period,
// on) over every node; rate 0 or period 0 leaves its part out, and nil
// means no churn. EngineConfig calls it with churnHorizon, and
// cmd/wsnsim's physical engine with its own horizon.
func ChurnSchedule(n int, rate float64, period, on int64, horizon sim.Time, seed int64) churn.Schedule {
	var parts []churn.Schedule
	if rate > 0 {
		parts = append(parts, churn.Poisson(n, rate, horizon, seed+seedChurn))
	}
	if period > 0 {
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		parts = append(parts, churn.DutyCycle(nodes, sim.Time(period), sim.Time(on), horizon))
	}
	if len(parts) == 0 {
		return nil
	}
	return churn.Merge(parts...)
}

// MissionField is the phenomenon a mission of the given seed senses,
// seed stream included. cmd/wsnsim builds its field here too, so "the
// same mission" means the same thing at the CLI and over HTTP.
func MissionField(name string, grid *geom.Grid, seed int64) (field.Field, error) {
	switch name {
	case "blobs":
		return field.RandomBlobs(4, grid.Terrain,
			grid.Terrain.Width()/10, grid.Terrain.Width()/6,
			rand.New(rand.NewSource(seed+seedField))), nil
	case "gradient":
		return field.Gradient{DX: 1.0 / grid.Terrain.Width() * 2}, nil
	case "stripes":
		return field.Stripes{Width: grid.Terrain.Width() / 4, High: 1}, nil
	case "solid":
		return field.Constant{Value: 1}, nil
	}
	return nil, fmt.Errorf("unknown field %q (want blobs, gradient, stripes, or solid)", name)
}

// Execute runs one validated, normalized mission and returns its
// result document and canonical trace bytes. The result is a pure
// function of the canonical spec — the contract the cache and the
// whole conformance suite stand on. sink (optional) observes trace
// events live when the spec asks for tracing.
func Execute(s *Spec, sink trace.Sink) (result, traceJSONL []byte, err error) {
	var out Outcome
	out.Version = Version
	out.Digest = s.Digest()
	out.Spec = json.RawMessage(s.Canonical())
	switch s.Workload {
	case "labeling":
		grid := geom.NewSquareGrid(s.Side, float64(s.Side)*10)
		cfg, cerr := EngineConfig(s, grid.N(), sink)
		if cerr != nil {
			return nil, nil, cerr
		}
		phen, ferr := MissionField(s.Field, grid, s.Seed)
		if ferr != nil {
			return nil, nil, ferr
		}
		m := field.Threshold(phen, grid, s.Thresh, 0)
		res, rerr := shard.RunLabeling(m, shard.LabelConfig{Config: cfg})
		if rerr != nil {
			return nil, nil, rerr
		}
		sum := &LabelSummary{
			Side: res.Side, Levels: res.Levels,
			Stalled: res.Final == nil,
			FinalAt: int64(res.FinalAt), Completion: int64(res.Completion),
			Msgs: res.Msgs, Hops: res.Hops,
			Sent: res.Sent, Delivered: res.Delivered, Dropped: res.Dropped,
			Deaths: res.Deaths, Suspends: res.Suspends, Resumes: res.Resumes,
			Energy: int64(res.Total),
		}
		if res.Final != nil {
			sum.Regions = res.Final.Count()
			sum.CoveredCells = res.Final.CoveredCells()
			sum.FeatureCells = res.Final.TotalCells()
		}
		out.Labeling = sum
		out.Checksum = fmt.Sprintf("%016x", res.Checksum())
		out.TraceBytes = len(res.Trace)
		traceJSONL = res.Trace
	case "flood":
		grid := geom.NewSquareGrid(s.Side, float64(s.Side)*10)
		n := s.Side * s.Side * s.Density
		rng := rand.New(rand.NewSource(s.Seed))
		nw, _, derr := deploy.Generate(n, grid, grid.CellSide()*1.2, deploy.UniformRandom{}, rng, deployTrys)
		if derr != nil {
			return nil, nil, fmt.Errorf("serve: deployment for seed %d is not connected: %w", s.Seed, derr)
		}
		cfg, cerr := EngineConfig(s, n, sink)
		if cerr != nil {
			return nil, nil, cerr
		}
		cfg.Floods = s.Floods
		cfg.PktSize = s.PktSize
		res, rerr := shard.Run(nw, cfg)
		if rerr != nil {
			return nil, nil, rerr
		}
		out.Flood = &FloodSummary{
			Nodes: res.Nodes, Floods: res.Floods,
			Origins: res.Origins, Reached: res.Reached,
			Forwards: res.Forwards, Ignored: res.Ignored,
			Sent: res.Sent, Delivered: res.Delivered, Dropped: res.Dropped,
			Completion: int64(res.Completion), Deaths: res.Deaths,
			Suspends: res.Suspends, Resumes: res.Resumes,
			Energy: int64(res.Total),
		}
		out.Checksum = fmt.Sprintf("%016x", res.Checksum())
		out.TraceBytes = len(res.Trace)
		traceJSONL = res.Trace
	default:
		return nil, nil, fmt.Errorf("serve: unvalidated workload %q", s.Workload)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&out); err != nil {
		return nil, nil, fmt.Errorf("serve: encode result: %w", err)
	}
	return b.Bytes(), traceJSONL, nil
}

// Oneshot is the CLI path: decode, normalize, validate, execute — and
// return exactly the bytes the server would serve for the same spec.
// cmd/wsnserve -oneshot wraps it; the e2e suite pins the byte identity.
func Oneshot(raw []byte) (result, traceJSONL []byte, err error) {
	spec, err := DecodeSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	norm := spec.Normalize()
	if err := norm.Validate(); err != nil {
		return nil, nil, err
	}
	return Execute(&norm, nil)
}
