// Package serve turns the deterministic simulation engines into a
// long-running, multi-tenant mission service: an HTTP/JSON API that
// accepts mission specs, schedules them on a bounded worker pool with
// per-tenant admission control and round-robin fairness, streams live
// trace JSONL while a run executes, and serves results from a
// content-addressed cache.
//
// The cache is the payoff of PRs 1-8's determinism work: every mission
// result is a pure function of (code version, normalized spec), so the
// sha256 of those two is a complete address for the answer. Two
// consequences fall out and are pinned by this package's tests:
//
//   - a repeat submission never recomputes — it returns the stored
//     bytes, byte-identical to the cold run;
//   - the execution strategy (engine choice, shard count, worker
//     count) is deliberately excluded from the digest, because the
//     shard engine's shard-count invariance makes it result-invariant:
//     a "shard" request can be served from a cache entry computed by a
//     "single" one (the same engine on one shard), and vice versa.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"wsnva/internal/fault"
	"wsnva/internal/geom"
)

// Version names the result semantics of the engines behind the server.
// It is hashed into every mission digest, so bumping it — which any PR
// changing simulation semantics must do — invalidates the entire cache
// rather than serving stale physics.
const Version = "wsnva-serve/1"

// Limits keep a public endpoint from being asked to simulate the moon:
// validation rejects specs beyond them with a 400 instead of queueing
// unbounded work.
const (
	MaxSide     = 64
	MaxDensity  = 16
	MaxNodes    = 20000
	MaxFloods   = 64
	MaxPktSize  = 1024
	MaxWorkers  = 64
	MaxShards   = 64
	MaxChurn    = 8.0
	MaxCapacity = int64(1) << 40
	// MaxSpecBytes bounds the request body a handler will read.
	MaxSpecBytes = 1 << 20
)

// BurstSpec is the wire form of the Gilbert-Elliott bursty channel.
type BurstSpec struct {
	PGoodBad float64 `json:"p_good_bad"`
	PBadGood float64 `json:"p_bad_good"`
	LossGood float64 `json:"loss_good"`
	LossBad  float64 `json:"loss_bad"`
}

func (b *BurstSpec) model() fault.GilbertElliott {
	if b == nil {
		return fault.GilbertElliott{}
	}
	return fault.GilbertElliott{
		PGoodBad: b.PGoodBad, PBadGood: b.PBadGood,
		LossGood: b.LossGood, LossBad: b.LossBad,
	}
}

// Spec is one mission request. The zero value normalizes to the default
// mission: a one-shard 8x8 blobs labeling run with seed 1 and no hazards.
//
// Engine, Shards, and Workers are execution strategy: they choose how
// the answer is computed, never what it is (the shard engine's
// shard-count invariance), so Normalize keeps them but Canonical — the
// digest basis — omits them.
type Spec struct {
	// Engine is "single" (the conservative-window engine on one shard) or
	// "shard" (the same engine on Shards shards over Workers goroutines).
	Engine string `json:"engine,omitempty"`
	// Shards/Workers parameterize the shard engine; ignored on "single".
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`

	// Workload is "labeling" (quad-tree region labeling over a virtual
	// grid, one node per cell) or "flood" (multi-origin dissemination
	// over a generated physical deployment).
	Workload string `json:"workload,omitempty"`
	// Side is the virtual grid side (a power of two).
	Side int `json:"side,omitempty"`
	// Seed keys every stochastic input: field shape, deployment
	// placement, crash schedule, churn schedule, loss streams.
	Seed int64 `json:"seed,omitempty"`

	// Labeling-only knobs: the phenomenon and its threshold.
	Field  string  `json:"field,omitempty"`
	Thresh float64 `json:"thresh,omitempty"`

	// Flood-only knobs: deployment density (nodes per cell, default 8),
	// concurrent floods, payload.
	Density int   `json:"density,omitempty"`
	Floods  int   `json:"floods,omitempty"`
	PktSize int64 `json:"pkt_size,omitempty"`

	// Hazards, shared by both workloads.
	Loss        float64    `json:"loss,omitempty"`
	Burst       *BurstSpec `json:"burst,omitempty"`
	CrashFrac   float64    `json:"crash_frac,omitempty"`
	CrashWindow int64      `json:"crash_window,omitempty"`
	ChurnRate   float64    `json:"churn_rate,omitempty"`
	DutyPeriod  int64      `json:"duty_period,omitempty"`
	DutyOn      int64      `json:"duty_on,omitempty"`
	Capacity    int64      `json:"capacity,omitempty"`
	Deplete     bool       `json:"deplete,omitempty"`

	// Trace asks for the canonical JSONL trace to be recorded (and live
	// events to be streamable).
	Trace bool `json:"trace,omitempty"`
}

// DecodeSpec parses one JSON mission spec strictly: unknown fields and
// trailing garbage are errors, because a typo'd knob that silently
// decodes to the default would cache the wrong mission under the right
// name forever.
func DecodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("serve: bad mission spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: bad mission spec: trailing data after the JSON object")
	}
	return &s, nil
}

// Normalize fills defaults and zeroes knobs that do not apply to the
// chosen workload, so every equivalent request canonicalizes to one
// form. It is total (never fails — validation is Validate's job) and
// idempotent: Normalize(Normalize(x)) == Normalize(x), which the fuzz
// target holds it to.
func (s Spec) Normalize() Spec {
	if s.Engine == "" {
		s.Engine = "single"
	}
	if s.Engine == "single" {
		s.Shards, s.Workers = 0, 0
	} else if s.Engine == "shard" && s.Shards <= 1 {
		s.Shards = 4
	}
	if s.Workload == "" {
		s.Workload = "labeling"
	}
	if s.Side == 0 {
		s.Side = 8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Workload {
	case "labeling":
		if s.Field == "" {
			s.Field = "blobs"
		}
		if s.Thresh == 0 {
			s.Thresh = 0.5
		}
		s.Density, s.Floods, s.PktSize = 0, 0, 0
	case "flood":
		s.Field, s.Thresh = "", 0
		// At 4 nodes per cell a flood at side 16 or more found no valid
		// deployment in its attempts; 8 deploys at every side up to 32,
		// and side 64 exceeds MaxNodes, which Validate names.
		if s.Density == 0 {
			s.Density = 8
		}
		if s.Floods == 0 {
			s.Floods = 1
		}
		if s.PktSize == 0 {
			s.PktSize = 2
		}
	}
	if s.Burst != nil && !s.Burst.model().Enabled() {
		s.Burst = nil
	}
	if s.CrashFrac == 0 {
		s.CrashWindow = 0
	} else if s.CrashWindow == 0 {
		s.CrashWindow = 32
	}
	if s.DutyPeriod == 0 {
		s.DutyOn = 0
	}
	return s
}

// Validate checks a normalized spec against the engine contracts and
// the service limits, returning the first violation. A spec that
// passes is guaranteed to build valid engine configurations.
func (s *Spec) Validate() error {
	switch s.Engine {
	case "single", "shard":
	default:
		return fmt.Errorf("serve: unknown engine %q (want single or shard)", s.Engine)
	}
	if s.Shards < 0 || s.Shards > MaxShards {
		return fmt.Errorf("serve: shards %d out of [0,%d]", s.Shards, MaxShards)
	}
	if s.Workers < 0 || s.Workers > MaxWorkers {
		return fmt.Errorf("serve: workers %d out of [0,%d]", s.Workers, MaxWorkers)
	}
	switch s.Workload {
	case "labeling":
		switch s.Field {
		case "blobs", "gradient", "stripes", "solid":
		default:
			return fmt.Errorf("serve: unknown field %q (want blobs, gradient, stripes, or solid)", s.Field)
		}
		if !(s.Thresh > 0 && s.Thresh < 1) {
			return fmt.Errorf("serve: threshold %v out of (0,1)", s.Thresh)
		}
	case "flood":
		if s.Density < 1 || s.Density > MaxDensity {
			return fmt.Errorf("serve: density %d out of [1,%d]", s.Density, MaxDensity)
		}
		if n := s.Side * s.Side * s.Density; n > MaxNodes {
			return fmt.Errorf("serve: %d nodes exceeds the %d-node service limit", n, MaxNodes)
		}
		if s.Floods < 1 || s.Floods > MaxFloods {
			return fmt.Errorf("serve: floods %d out of [1,%d]", s.Floods, MaxFloods)
		}
		if s.PktSize < 1 || s.PktSize > MaxPktSize {
			return fmt.Errorf("serve: pkt_size %d out of [1,%d]", s.PktSize, MaxPktSize)
		}
	default:
		return fmt.Errorf("serve: unknown workload %q (want labeling or flood)", s.Workload)
	}
	if !geom.IsPow2(s.Side) || s.Side < 2 || s.Side > MaxSide {
		return fmt.Errorf("serve: side %d must be a power of two in [2,%d]", s.Side, MaxSide)
	}
	if !(s.Loss >= 0 && s.Loss < 1) { // rejects NaN too
		return fmt.Errorf("serve: loss %v out of [0,1)", s.Loss)
	}
	if s.Burst != nil {
		if s.Loss > 0 {
			return fmt.Errorf("serve: loss and burst are mutually exclusive")
		}
		if err := s.Burst.model().Validate(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if !(s.CrashFrac >= 0 && s.CrashFrac <= 1) {
		return fmt.Errorf("serve: crash_frac %v out of [0,1]", s.CrashFrac)
	}
	if s.CrashFrac > 0 && s.CrashWindow < 1 {
		return fmt.Errorf("serve: crash_window %d must be >= 1", s.CrashWindow)
	}
	if !(s.ChurnRate >= 0 && s.ChurnRate <= MaxChurn) {
		return fmt.Errorf("serve: churn_rate %v out of [0,%v]", s.ChurnRate, MaxChurn)
	}
	if s.DutyPeriod != 0 && (s.DutyPeriod < 2 || s.DutyOn < 1 || s.DutyOn >= s.DutyPeriod) {
		return fmt.Errorf("serve: duty cycle %d:%d wants 0 < on < period", s.DutyPeriod, s.DutyOn)
	}
	if s.Capacity < 0 || s.Capacity > MaxCapacity {
		return fmt.Errorf("serve: capacity %d out of [0,%d]", s.Capacity, MaxCapacity)
	}
	if s.Deplete && s.Capacity == 0 {
		return fmt.Errorf("serve: deplete needs a positive capacity")
	}
	return nil
}

// canonSpec is the digest basis: every result-affecting field of a
// normalized spec, in fixed declaration order, with no omissions — an
// explicit, human-auditable statement of what the cache key covers.
// Execution strategy (engine, shards, workers) is deliberately absent.
type canonSpec struct {
	Workload    string     `json:"workload"`
	Side        int        `json:"side"`
	Seed        int64      `json:"seed"`
	Field       string     `json:"field"`
	Thresh      float64    `json:"thresh"`
	Density     int        `json:"density"`
	Floods      int        `json:"floods"`
	PktSize     int64      `json:"pkt_size"`
	Loss        float64    `json:"loss"`
	Burst       *BurstSpec `json:"burst"`
	CrashFrac   float64    `json:"crash_frac"`
	CrashWindow int64      `json:"crash_window"`
	ChurnRate   float64    `json:"churn_rate"`
	DutyPeriod  int64      `json:"duty_period"`
	DutyOn      int64      `json:"duty_on"`
	Capacity    int64      `json:"capacity"`
	Deplete     bool       `json:"deplete"`
	Trace       bool       `json:"trace"`
}

// Canonical renders the normalized spec's mission content as
// deterministic JSON — the bytes the digest hashes and the result
// embeds. Two specs asking for the same computation (under any
// execution strategy) produce identical canonical bytes.
func (s *Spec) Canonical() []byte {
	c := canonSpec{
		Workload: s.Workload, Side: s.Side, Seed: s.Seed,
		Field: s.Field, Thresh: s.Thresh,
		Density: s.Density, Floods: s.Floods, PktSize: s.PktSize,
		Loss: s.Loss, Burst: s.Burst,
		CrashFrac: s.CrashFrac, CrashWindow: s.CrashWindow,
		ChurnRate: s.ChurnRate, DutyPeriod: s.DutyPeriod, DutyOn: s.DutyOn,
		Capacity: s.Capacity, Deplete: s.Deplete, Trace: s.Trace,
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&c); err != nil {
		// A struct of scalars and one pointer cannot fail to marshal.
		panic(fmt.Sprintf("serve: canonical encode: %v", err))
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// Digest is the mission's content address: sha256 over the code version
// and the canonical spec, hex-encoded. Identical digests mean
// byte-identical results; the conformance suite turns that claim into
// a test.
func (s *Spec) Digest() string {
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte{'\n'})
	h.Write(s.Canonical())
	return hex.EncodeToString(h.Sum(nil))
}
