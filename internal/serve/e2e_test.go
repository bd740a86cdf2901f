package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnva/internal/trace"
)

// End-to-end conformance: the full submit -> stream -> fetch lifecycle
// over a real HTTP round trip, pinned to byte identity across
// {cold run, cache hit, CLI oneshot} x {single, shard} engines. These
// are the tests the cache's correctness claim stands on: a hit is
// served without simulating, so it had better be provably the same
// bytes a run would produce.

const (
	labelSpec4x4   = `{"workload":"labeling","side":4,"seed":7,"trace":true}`
	floodSpecShard = `{"engine":"shard","shards":4,"workers":2,"workload":"flood","side":4,"density":4,"floods":2,"seed":5,"loss":0.1,"trace":true}`
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postMission(t *testing.T, ts *httptest.Server, tenant, spec, query string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/missions"+query, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func getPath(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestE2EDefaultFloodDensityDeploys: a flood mission that names no
// density deploys at sides 16 and 32 (at the old default of 4 it found
// no valid deployment there and answered 422), and at side 64 the
// default is refused up front with the node limit as its reason.
func TestE2EDefaultFloodDensityDeploys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, side := range []int{16, 32} {
		resp, body := postMission(t, ts, "", fmt.Sprintf(`{"workload":"flood","side":%d,"seed":3}`, side), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("side %d default flood: status %d: %s", side, resp.StatusCode, body)
		}
	}
	resp, body := postMission(t, ts, "", `{"workload":"flood","side":64,"seed":3}`, "")
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("node service limit")) {
		t.Fatalf("side 64 default flood: status %d: %s", resp.StatusCode, body)
	}
}

// TestE2ELifecycle walks one mission through the whole service: cold
// submission, cache-hit resubmission, digest fetch, trace fetch, stats
// — and pins the served bytes to the CLI oneshot path.
func TestE2ELifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp, cold := postMission(t, ts, "alice", labelSpec4x4, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold submit: status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold submit: X-Cache = %q, want miss", got)
	}
	digest := resp.Header.Get("X-Mission-Digest")
	if len(digest) != 64 {
		t.Fatalf("cold submit: digest header %q is not a sha256 hex", digest)
	}
	var out Outcome
	if err := json.Unmarshal(cold, &out); err != nil {
		t.Fatalf("cold submit: result is not an Outcome: %v", err)
	}
	if out.Digest != digest || out.Version != Version {
		t.Errorf("outcome identifies as (%s, %s), want (%s, %s)", out.Version, out.Digest, Version, digest)
	}
	if out.Labeling == nil || out.Labeling.Stalled {
		t.Fatalf("labeling mission did not complete: %+v", out.Labeling)
	}
	if srv.Runs() != 1 {
		t.Fatalf("cold submit: runs = %d, want 1", srv.Runs())
	}

	// A second tenant resubmitting the same mission gets the stored
	// bytes without a simulator invocation.
	resp, hit := postMission(t, ts, "bob", labelSpec4x4, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("resubmit: status %d X-Cache %q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, hit) {
		t.Errorf("cache hit diverges from cold run:\ncold: %s\nhit:  %s", cold, hit)
	}
	if srv.Runs() != 1 {
		t.Errorf("cache hit ran the simulator: runs = %d, want 1", srv.Runs())
	}

	// The digest is a fetchable address.
	resp, fetched := getPath(t, ts, "/v1/missions/"+digest)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(cold, fetched) {
		t.Errorf("GET by digest: status %d, bytes equal %v", resp.StatusCode, bytes.Equal(cold, fetched))
	}
	resp, traceBody := getPath(t, ts, "/v1/missions/"+digest+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	if len(traceBody) != out.TraceBytes {
		t.Errorf("GET trace: %d bytes, outcome says %d", len(traceBody), out.TraceBytes)
	}

	// The CLI oneshot path serves exactly the same bytes.
	cliResult, cliTrace, err := Oneshot([]byte(labelSpec4x4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, cliResult) {
		t.Errorf("CLI oneshot result diverges from server:\nsrv: %s\ncli: %s", cold, cliResult)
	}
	if !bytes.Equal(traceBody, cliTrace) {
		t.Errorf("CLI oneshot trace diverges from server (%d vs %d bytes)", len(traceBody), len(cliTrace))
	}

	resp, statsBody := getPath(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stats: status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.Cache.Hits < 2 || st.Cache.Entries != 1 {
		t.Errorf("stats = runs %d, hits %d, entries %d; want 1, >=2, 1", st.Runs, st.Cache.Hits, st.Cache.Entries)
	}

	resp, _ = getPath(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestE2ECrossEngine proves the digest's boldest exclusion: the same
// mission under the single kernel and the shard kernel digests
// identically AND produces byte-identical results, so a shard-engine
// request is legitimately served from a single-engine cache entry.
func TestE2ECrossEngine(t *testing.T) {
	single := `{"engine":"single","workload":"flood","side":4,"density":4,"floods":2,"seed":5,"loss":0.1,"trace":true}`
	shard := floodSpecShard

	// Byte identity, computed both ways with no cache in between.
	sres, strace, err := Oneshot([]byte(single))
	if err != nil {
		t.Fatal(err)
	}
	hres, htrace, err := Oneshot([]byte(shard))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sres, hres) {
		t.Fatalf("engines disagree on the result:\nsingle: %s\nshard:  %s", sres, hres)
	}
	if !bytes.Equal(strace, htrace) {
		t.Fatalf("engines disagree on the canonical trace (%d vs %d bytes)", len(strace), len(htrace))
	}

	// Therefore the cross-engine cache hit is sound.
	srv, ts := newTestServer(t, Config{})
	resp, cold := postMission(t, ts, "", single, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("single submit: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, hit := postMission(t, ts, "", shard, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("shard submit after single: status %d X-Cache %q, want a cross-engine hit",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, hit) || srv.Runs() != 1 {
		t.Errorf("cross-engine hit: bytes equal %v, runs %d (want true, 1)", bytes.Equal(cold, hit), srv.Runs())
	}
}

// TestE2EStream exercises the live-streaming path: trace JSONL lines, a
// blank-line delimiter, then the result document — for both a cold run
// and a cache-hit replay (which streams the canonical trace verbatim).
func TestE2EStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postMission(t, ts, "", labelSpec4x4, "?stream=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream submit: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	events, result := splitStream(t, body)
	// Every live line is encoding/json's bytes for its event, though the
	// stream writes them in batches through trace.AppendJSONL.
	for i, line := range events {
		var e trace.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("stream line %d is not an event: %q", i, line)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		enc.Encode(&e)
		if !bytes.Equal(append(line, '\n'), want.Bytes()) {
			t.Fatalf("stream line %d: %q, encoding/json writes %q", i, line, want.Bytes())
		}
	}
	var out Outcome
	if err := json.Unmarshal(result, &out); err != nil {
		t.Fatalf("stream result document: %v", err)
	}

	// The cache-hit stream replays the stored canonical trace, so its
	// event bytes ARE the canonical record and its result matches.
	resp, replay := postMission(t, ts, "", labelSpec4x4, "?stream=1")
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("replay: X-Cache %q, want hit", resp.Header.Get("X-Cache"))
	}
	rEvents, rResult := splitStream(t, replay)
	if !bytes.Equal(rResult, result) {
		t.Errorf("replay result diverges from cold stream result")
	}
	joined := bytes.Join(rEvents, []byte("\n"))
	_, wantTrace := getPath(t, ts, "/v1/missions/"+out.Digest+"/trace")
	if !bytes.Equal(joined, bytes.TrimSuffix(wantTrace, []byte("\n"))) {
		t.Errorf("replayed stream events are not the canonical trace (%d vs %d bytes)",
			len(joined), len(wantTrace))
	}
	// A mission this small overflows no subscriber channel: the live
	// stream carried every event of the canonical trace.
	if len(events) != len(rEvents) {
		t.Errorf("live stream carried %d events, the canonical trace holds %d", len(events), len(rEvents))
	}
}

// splitStream cuts a streamed body at the blank-line delimiter into
// trace-event lines and the result document.
func splitStream(t *testing.T, body []byte) (events [][]byte, result []byte) {
	t.Helper()
	i := bytes.Index(body, []byte("\n\n"))
	if i < 0 {
		t.Fatalf("streamed body has no blank-line delimiter: %q", body)
	}
	head, tail := body[:i], body[i+2:]
	if len(head) > 0 {
		events = bytes.Split(head, []byte("\n"))
	}
	return events, tail
}

// TestE2EGolden pins the exact response bytes of two representative
// missions. Regenerate with UPDATE_GOLDEN=1 after an intended semantic
// change (which must also bump serve.Version).
func TestE2EGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, spec string
	}{
		{"labeling_4x4.json", labelSpec4x4},
		{"flood_shard.json", floodSpecShard},
	} {
		resp, body := postMission(t, ts, "", tc.spec, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		checkGolden(t, tc.name, body)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: response diverges from golden;\ngot:  %s\nwant: %s\n"+
			"if the semantic change is intended, bump serve.Version and regenerate with UPDATE_GOLDEN=1",
			name, got, want)
	}
}

// TestE2ERejections covers the failure edges: malformed and invalid
// specs 400, unknown digests 404, wrong methods 405 — all as JSON error
// documents, never panics.
func TestE2ERejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, spec string
		status     int
	}{
		{"malformed JSON", `{"workload":`, http.StatusBadRequest},
		{"unknown field", `{"wrokload":"labeling"}`, http.StatusBadRequest},
		{"trailing data", `{"side":4} {"side":8}`, http.StatusBadRequest},
		{"non-pow2 side", `{"side":5}`, http.StatusBadRequest},
		{"bad engine", `{"engine":"quantum"}`, http.StatusBadRequest},
		{"loss and burst", `{"loss":0.5,"burst":{"p_good_bad":0.1,"p_bad_good":0.5,"loss_bad":0.9}}`, http.StatusBadRequest},
		{"deplete sans capacity", `{"deplete":true}`, http.StatusBadRequest},
	} {
		resp, body := postMission(t, ts, "", tc.spec, "")
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not {\"error\":...}", tc.name, body)
		}
	}

	resp, _ := getPath(t, ts, "/v1/missions/"+strings.Repeat("ab", 32))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest: status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/missions", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", resp.StatusCode)
	}
}

// TestE2EAdmission pins the admission-control status mapping: a tenant
// past its outstanding cap gets 429 while a different tenant is still
// admitted, and a closed server answers 503. A blocking ticket pins the
// single worker so every admission outcome is deterministic.
func TestE2EAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{Sched: SchedConfig{Workers: 1, TenantSlots: 2, QueueBound: 64}})

	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	// If an assertion fails early, still unblock the worker so server
	// cleanup can drain the queued requests.
	t.Cleanup(unblock)
	holder, err := srv.Sched().Submit("holder", func() { <-release })
	if err != nil {
		t.Fatal(err)
	}

	specFor := func(i int) string {
		return fmt.Sprintf(`{"workload":"labeling","side":4,"seed":%d}`, 1000+i)
	}
	// Fill greedy's cap with distinct (uncacheable) missions; they queue
	// behind the held worker.
	statuses := make(chan int, 8)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, _ := postMission(t, ts, "greedy", specFor(i), "")
			statuses <- resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return srv.Sched().Stats().Tenants["greedy"].Outstanding == 2 })

	resp, _ := postMission(t, ts, "greedy", specFor(99), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-cap tenant: status %d, want 429", resp.StatusCode)
	}
	if rej := srv.Sched().Stats().Tenants["greedy"].Rejected; rej != 1 {
		t.Errorf("greedy rejected = %d, want 1", rej)
	}

	// Another tenant is unaffected by greedy's cap (distinct seed, so it
	// cannot coalesce into a greedy flight).
	go func() {
		resp, _ := postMission(t, ts, "patient", specFor(500), "")
		statuses <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.Sched().Stats().Tenants["patient"].Admitted == 1 })

	unblock()
	holder.Wait()
	for i := 0; i < 3; i++ {
		if got := <-statuses; got != http.StatusOK {
			t.Errorf("queued mission %d: status %d, want 200", i, got)
		}
	}

	srv.Close()
	resp, _ = postMission(t, ts, "anyone", specFor(7), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed server: status %d, want 503", resp.StatusCode)
	}
}

// TestE2EMissionPanic pins the handler's answer to a mission whose run
// panics: 500 with the digest header and an error naming the panic, a
// panic count in /v1/stats, and nothing cached — resubmitting the spec
// runs it again.
func TestE2EMissionPanic(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.execute = func(*Spec, trace.Sink) ([]byte, []byte, error) { panic("engine blew up") }

	for try := 0; try < 2; try++ {
		resp, body := postMission(t, ts, "alice", labelSpec4x4, "")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("try %d: status %d, want 500: %s", try, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Mission-Digest") == "" {
			t.Errorf("try %d: no X-Mission-Digest header", try)
		}
		if !strings.Contains(string(body), "engine blew up") {
			t.Errorf("try %d: error body %s does not name the panic", try, body)
		}
	}
	if runs := srv.Runs(); runs != 2 {
		t.Errorf("runs = %d, want 2 (a panicked mission must not be cached)", runs)
	}
	if st := srv.Cache().Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("cache = %d hits, %d entries; want none", st.Hits, st.Entries)
	}
	_, statsBody := getPath(t, ts, "/v1/stats")
	var st Stats
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Sched.Panicked != 2 {
		t.Errorf("/v1/stats sched.panicked = %d, want 2", st.Sched.Panicked)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
