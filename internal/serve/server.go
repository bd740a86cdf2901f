package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"wsnva/internal/trace"
)

// Config parameterizes a Server. The zero value serves with the
// scheduler and cache defaults.
type Config struct {
	Sched SchedConfig
	// CacheBytes bounds the result cache (0 = 64 MiB).
	CacheBytes int64
}

// Server is the mission service: spec codec + digest in front, the
// tenant-fair scheduler in the middle, the content-addressed cache
// behind. It implements http.Handler; cmd/wsnserve mounts it on a
// listener and the tests mount it on httptest.Server.
type Server struct {
	cache *Cache
	sched *Scheduler
	// execute runs one mission: Execute, swappable by tests.
	execute func(*Spec, trace.Sink) (result, traceJSONL []byte, err error)

	// runs counts actual simulator invocations — the denominator of the
	// cache's value, and the counter the zero-recompute property test
	// watches.
	runs atomic.Int64

	// flights coalesces concurrent identical submissions: the first
	// computes, the rest wait on it — identical requests never run the
	// simulator twice even before the result lands in the cache.
	mu      sync.Mutex
	flights map[string]*flight

	mux *http.ServeMux
}

// flight is one in-progress mission computation plus its live-stream
// subscribers.
type flight struct {
	done   chan struct{}
	result []byte
	trace  []byte
	err    error

	mu   sync.Mutex
	subs []chan trace.Event
}

// TraceEvent fans a live engine event out to every stream subscriber,
// dropping (never blocking) when a subscriber lags — trace.Sink's
// contract: the live stream is a best-effort watch, the canonical
// record arrives with the result.
func (f *flight) TraceEvent(e trace.Event) {
	f.mu.Lock()
	for _, ch := range f.subs {
		select {
		case ch <- e:
		default:
		}
	}
	f.mu.Unlock()
}

func (f *flight) subscribe() chan trace.Event {
	ch := make(chan trace.Event, 4096)
	f.mu.Lock()
	f.subs = append(f.subs, ch)
	f.mu.Unlock()
	return ch
}

// NewServer assembles a mission server.
func NewServer(cfg Config) *Server {
	s := &Server{
		cache:   NewCache(cfg.CacheBytes),
		sched:   NewScheduler(cfg.Sched),
		execute: Execute,
		flights: make(map[string]*flight),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/missions", s.handleMissions)
	s.mux.HandleFunc("/v1/missions/", s.handleMissionByDigest)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Runs reports how many times the simulator actually executed — cache
// hits and coalesced flights do not move it.
func (s *Server) Runs() int64 { return s.runs.Load() }

// Cache exposes the result cache (stats, test seeding).
func (s *Server) Cache() *Cache { return s.cache }

// Sched exposes the scheduler (stats assertions in tests).
func (s *Server) Sched() *Scheduler { return s.sched }

// Close stops admitting missions.
func (s *Server) Close() { s.sched.Close() }

// tenantOf extracts the tenant identity: the X-Tenant header, "anon"
// when absent. Identity is transport metadata, never mission content —
// two tenants asking the same question share one cache entry.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%s}\n", mustJSONString(err.Error()))
}

func mustJSONString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// handleMissions is POST /v1/missions: submit a mission spec, get its
// result — from the cache when the digest is known, computed under
// admission control otherwise. With ?stream=1 the response is chunked
// JSONL: trace event lines while the run executes (emission order), a
// blank line, then the result document.
func (s *Server) handleMissions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST a mission spec"))
		return
	}
	spec, err := DecodeSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	norm := spec.Normalize()
	if err := norm.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	digest := norm.Digest()
	stream := r.URL.Query().Get("stream") != ""
	w.Header().Set("X-Mission-Digest", digest)

	if result, tr, ok := s.cache.Get(digest); ok {
		s.respond(w, "hit", stream, result, tr)
		return
	}

	// Join an identical in-flight computation, or start one.
	s.mu.Lock()
	f, joined := s.flights[digest]
	if !joined {
		f = &flight{done: make(chan struct{})}
		s.flights[digest] = f
	}
	s.mu.Unlock()

	var events chan trace.Event
	if stream && norm.Trace {
		events = f.subscribe()
	}

	if !joined {
		var sink trace.Sink
		if norm.Trace {
			sink = f
		}
		ticket, err := s.sched.Submit(tenantOf(r), func() {
			s.runs.Add(1)
			f.result, f.trace, f.err = s.execute(&norm, sink)
			if f.err == nil {
				s.cache.Put(digest, f.result, f.trace)
			}
		})
		if err != nil {
			s.mu.Lock()
			delete(s.flights, digest)
			s.mu.Unlock()
			close(f.done)
			switch err {
			case ErrTenantBusy:
				writeError(w, http.StatusTooManyRequests, err)
			case ErrQueueFull, ErrClosed:
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		go func() {
			// A client that vanishes while its mission is still queued
			// withdraws it; once running, the result is computed and
			// cached anyway (the next request gets it for free).
			select {
			case <-ticket.Done():
			case <-r.Context().Done():
				ticket.Cancel()
			}
			ticket.Wait()
			if err := ticket.Err(); err != nil {
				f.err = err
			}
			s.mu.Lock()
			delete(s.flights, digest)
			s.mu.Unlock()
			close(f.done)
		}()
	}

	if stream {
		s.streamFlight(w, r, f, events)
		return
	}
	select {
	case <-f.done:
	case <-r.Context().Done():
		return
	}
	if errors.Is(f.err, ErrMissionPanic) {
		writeError(w, http.StatusInternalServerError, f.err)
		return
	}
	if f.err != nil {
		writeError(w, http.StatusUnprocessableEntity, f.err)
		return
	}
	if f.result == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: mission withdrawn before it ran"))
		return
	}
	s.respond(w, "miss", false, f.result, f.trace)
}

// respond writes a completed mission: headers, then either the result
// document alone or the stream framing (trace JSONL, blank line,
// result).
func (s *Server) respond(w http.ResponseWriter, cacheState string, stream bool, result, traceJSONL []byte) {
	w.Header().Set("X-Cache", cacheState)
	if !stream {
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(traceJSONL)
	w.Write([]byte("\n"))
	w.Write(result)
}

// streamFlight serves a live mission as chunked JSONL: engine events as
// they are emitted, a blank line once the run completes, then the
// result document. The live lines are emission-ordered (engine-
// dependent); the result's canonical trace remains the deterministic
// record. Each wake-up writes every event already queued as one batch
// and flushes once.
func (s *Server) streamFlight(w http.ResponseWriter, r *http.Request, f *flight, events chan trace.Event) {
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var buf []byte
	for {
		select {
		case e := <-events:
			buf = appendQueued(buf[:0], &e, events)
			w.Write(buf)
			if flusher != nil {
				flusher.Flush()
			}
		case <-f.done:
			// Drain what the engine emitted before completion; nothing
			// arrives after it, so an empty channel is the end.
			for len(events) > 0 {
				e := <-events
				buf = appendQueued(buf[:0], &e, events)
				w.Write(buf)
			}
			if f.err != nil {
				fmt.Fprintf(w, "\n{\"error\":%s}\n", mustJSONString(f.err.Error()))
				return
			}
			if f.result == nil {
				fmt.Fprintf(w, "\n{\"error\":\"serve: mission withdrawn before it ran\"}\n")
				return
			}
			w.Write([]byte("\n"))
			w.Write(f.result)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// streamBatch bounds one batch of live lines at about 64 KiB.
const streamBatch = 64 << 10

// appendQueued appends e's JSONL line, then those of the events queued
// behind it, until the channel is empty or the batch is full.
func appendQueued(buf []byte, e *trace.Event, events chan trace.Event) []byte {
	buf = trace.AppendJSONL(buf, e)
	for len(buf) < streamBatch {
		select {
		case next := <-events:
			buf = trace.AppendJSONL(buf, &next)
		default:
			return buf
		}
	}
	return buf
}

// handleMissionByDigest serves GET /v1/missions/{digest} (the cached
// result document) and GET /v1/missions/{digest}/trace (the canonical
// trace JSONL).
func (s *Server) handleMissionByDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: GET a cached mission"))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/missions/")
	digest, wantTrace := rest, false
	if d, ok := strings.CutSuffix(rest, "/trace"); ok {
		digest, wantTrace = d, true
	}
	if digest == "" || strings.Contains(digest, "/") {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: want /v1/missions/{digest}[/trace]"))
		return
	}
	result, tr, ok := s.cache.Get(digest)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no cached mission %s", digest))
		return
	}
	w.Header().Set("X-Mission-Digest", digest)
	w.Header().Set("X-Cache", "hit")
	if wantTrace {
		if len(tr) == 0 {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: mission %s ran without trace:true", digest))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(tr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result)
}

// Stats is the service-wide counter document.
type Stats struct {
	Version string     `json:"version"`
	Runs    int64      `json:"runs"`
	Cache   CacheStats `json:"cache"`
	Sched   SchedStats `json:"sched"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Version: Version,
		Runs:    s.runs.Load(),
		Cache:   s.cache.Stats(),
		Sched:   s.sched.Stats(),
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.Encode(&st)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ok\":true,\"version\":%s}\n", mustJSONString(Version))
}
