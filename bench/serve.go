package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsnva/internal/serve"
)

// The load generator is one process with serveClients closed-loop client
// goroutines over at most serveClients connections, against a server with
// serveWorkers mission workers.
const (
	serveClients = 2
	serveWorkers = 2
)

var tenants = [serveClients]string{"tenant-a", "tenant-b"}

// serveRig is one mission server behind a loopback HTTP listener plus the
// client the load comes from.
type serveRig struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func newServeRig(cacheBytes int64) *serveRig {
	srv := newServer(cacheBytes)
	return &serveRig{
		srv: srv,
		hs:  httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
}

// newServer builds the mission server every serve workload runs against;
// cacheBytes 0 keeps the default cache budget.
func newServer(cacheBytes int64) *serve.Server {
	return serve.NewServer(serve.Config{Sched: serve.SchedConfig{Workers: serveWorkers}, CacheBytes: cacheBytes})
}

func (g *serveRig) close() {
	g.client.CloseIdleConnections()
	g.hs.Close()
	g.srv.Close()
}

type reply struct {
	status int
	cache  string // X-Cache
	digest string // X-Mission-Digest
	body   []byte
}

func (g *serveRig) do(client int, method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, g.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("X-Tenant", tenants[client])
	resp, err := g.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Mission-Digest"), b}, nil
}

// resultDoc returns a response's result document: the whole body, or for
// a ?stream=1 body the last line (trace lines precede it, and their order
// depends on the engine, so they stay out of outputs_sha256).
func resultDoc(body []byte) []byte {
	if i := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n'); i >= 0 {
		return body[i+1:]
	}
	return body
}

// digestOf hashes per-op result documents in op order.
func digestOf(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opDocs keeps the result documents of selected ops, safe for use by
// every client goroutine.
type opDocs struct {
	mu   sync.Mutex
	docs map[int][]byte
}

func (k *opDocs) put(i int, doc []byte) {
	k.mu.Lock()
	if k.docs == nil {
		k.docs = map[int][]byte{}
	}
	k.docs[i] = doc
	k.mu.Unlock()
}

// prefix returns the documents of ops 0..n-1 (nil entries if missing).
func (k *opDocs) prefix(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = k.docs[i]
	}
	return out
}

// replayCounts tallies what the in-process replay of the handler saw.
type replayCounts struct {
	gets, hits, puts atomic.Int64
	bodyBytes        atomic.Int64
	bodies           atomic.Int64
}

// replayPost recomposes the POST /v1/missions handler in process, in the
// handler's own order, with a span around each call: DecodeSpec,
// Normalize+Validate, Digest, Cache.Get and, on a miss, replayRun. It
// returns the result document, the canonical trace, whether the cache
// hit, and the mission's Execute time.
func replayPost(srv *serve.Server, raw []byte, tenant string, i int, root int32, tr *tracer, n *replayCounts) (result, trc []byte, hit bool, exec time.Duration, err error) {
	sp := tr.begin("serve.decode", i, root)
	spec, err := serve.DecodeSpec(bytes.NewReader(raw))
	tr.end(sp)
	if err != nil {
		return nil, nil, false, 0, err
	}
	sp = tr.begin("serve.validate", i, root)
	norm := spec.Normalize()
	err = norm.Validate()
	tr.end(sp)
	if err != nil {
		return nil, nil, false, 0, err
	}
	sp = tr.begin("serve.digest", i, root)
	digest := norm.Digest()
	tr.end(sp)
	result, trc, hit = replayGet(srv, digest, i, root, tr, n)
	if hit {
		return result, trc, true, 0, nil
	}
	result, trc, exec, err = replayRun(srv, &norm, digest, tenant, i, root, tr, n)
	return result, trc, false, exec, err
}

func replayGet(srv *serve.Server, digest string, i int, root int32, tr *tracer, n *replayCounts) (result, trc []byte, hit bool) {
	sp := tr.begin("serve.cache_get", i, root)
	result, trc, hit = srv.Cache().Get(digest)
	tr.end(sp)
	n.gets.Add(1)
	if hit {
		n.hits.Add(1)
	}
	return result, trc, hit
}

// replayRun is the handler's miss path: Scheduler.Submit of a job that
// runs Execute then Cache.Put, and Ticket.Wait for it.
func replayRun(srv *serve.Server, norm *serve.Spec, digest, tenant string, i int, root int32, tr *tracer, n *replayCounts) (result, trc []byte, exec time.Duration, err error) {
	run := tr.begin("serve.run", i, root)
	defer tr.end(run)
	var runErr error
	submitted := time.Now()
	ticket, err := srv.Sched().Submit(tenant, func() {
		started := time.Now()
		tr.interval("serve.queue_wait", i, run, submitted, started)
		sp := tr.begin("serve.execute", i, run)
		result, trc, runErr = serve.Execute(norm, nil)
		tr.end(sp)
		exec = time.Since(started)
		if runErr == nil {
			sp = tr.begin("serve.cache_put", i, run)
			srv.Cache().Put(digest, result, trc)
			tr.end(sp)
			n.puts.Add(1)
		}
	})
	if err != nil {
		return nil, nil, 0, err
	}
	ticket.Wait()
	return result, trc, exec, runErr
}

// serveLayers fills the serve per-layer metrics the spans do not give:
// the cache hit ratio, the mean body size, and the HTTP cost, which is
// the untraced HTTP phase's median op latency minus the replay's.
func serveLayers(m map[string]float64, httpP50, replayP50 float64, n *replayCounts) {
	m["serve.http.p50_us"] = (httpP50 - replayP50) * 1e6
	if g := n.gets.Load(); g > 0 {
		m["serve.cache.hit_ratio"] = float64(n.hits.Load()) / float64(g)
	}
	if b := n.bodies.Load(); b > 0 {
		m["serve.body.mean_kb"] = float64(n.bodyBytes.Load()) / float64(b) / 1e3
	}
}

// ---------------------------------------------------------------- serve-hot

// serve-hot: every measured request is a cache hit, so the front end
// (HTTP, decode, digest, cache, encode) does all the work and the engines
// none.
const (
	hotUntraced  = 502 // specs drawn by Zipf rank
	hotTraced    = 10  // traced side-16 labeling specs, requested as streams
	hotDigestOps = 1000
	hotTracedCap = 50000 // replay op cap: bounds the spans kept in memory
	hotZipfS     = 1.1
	hotTracedP   = 0.02
	hotPostP     = 0.8
)

type hotSpec struct {
	raw    []byte
	traced bool
	digest string // X-Mission-Digest from the pre-warm
	result []byte // pre-warm result document
	stream []byte // pre-warm ?stream=1 body (traced specs)
}

func hotSpecs(seed int64) []hotSpec {
	s := opStream(seed, -1)
	fields := []string{"blobs", "gradient", "stripes", "solid"}
	specs := make([]hotSpec, 0, hotUntraced+hotTraced)
	for k := 0; k < hotUntraced; k++ {
		raw := fmt.Sprintf(`{"workload":"labeling","side":%d,"seed":%d,"field":%q,"thresh":%.1f}`,
			8<<s.intn(2), s.seed63(), fields[s.intn(len(fields))], 0.3+0.1*float64(s.intn(5)))
		specs = append(specs, hotSpec{raw: []byte(raw)})
	}
	for k := 0; k < hotTraced; k++ {
		raw := fmt.Sprintf(`{"workload":"labeling","side":16,"seed":%d,"trace":true}`, s.seed63())
		specs = append(specs, hotSpec{raw: []byte(raw), traced: true})
	}
	return specs
}

// zipfCDF returns the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

type hotState struct {
	g     *serveRig
	specs []hotSpec
}

// prewarm submits every spec once over HTTP (and each traced spec once
// more as a stream) and records the bytes the measured phase must match.
func prewarm(g *serveRig, specs []hotSpec) error {
	l := closedLoop(serveClients, 0, len(specs), len(specs), func(c, k int) error {
		sp := &specs[k]
		rp, err := g.do(c, "POST", "/v1/missions", sp.raw)
		if err != nil {
			return err
		}
		if rp.status != http.StatusOK {
			return fmt.Errorf("pre-warm %s: status %d: %s", sp.raw, rp.status, rp.body)
		}
		sp.digest, sp.result = rp.digest, rp.body
		if sp.traced {
			rp, err = g.do(c, "POST", "/v1/missions?stream=1", sp.raw)
			if err != nil {
				return err
			}
			if rp.status != http.StatusOK || rp.cache != "hit" {
				return fmt.Errorf("pre-warm stream %s: status %d, X-Cache %q", sp.raw, rp.status, rp.cache)
			}
			sp.stream = rp.body
		}
		return nil
	})
	if l.failed > 0 {
		return fmt.Errorf("%d of %d pre-warm missions failed", l.failed, len(specs))
	}
	return nil
}

func runServeHot(r *run) error {
	st, setup, err := repeatSetup(r.setupReps, func() (hotState, error) {
		st := hotState{g: newServeRig(0), specs: hotSpecs(r.seed)}
		if err := prewarm(st.g, st.specs); err != nil {
			st.g.close()
			return st, err
		}
		return st, nil
	}, func(st hotState) { st.g.close() })
	if err != nil {
		return err
	}
	defer st.g.close()
	cdf := zipfCDF(hotUntraced, hotZipfS)
	pick := func(i int) (spec *hotSpec, post bool) {
		s := opStream(r.seed, i)
		k := sort.SearchFloat64s(cdf, s.float())
		if s.float() < hotTracedP {
			k = hotUntraced + s.intn(hotTraced)
		}
		return &st.specs[k], s.float() < hotPostP
	}
	minOps := r.minOrDefault(hotDigestOps)
	var docs opDocs

	// The untraced phase: real HTTP, every response a checked cache hit.
	httpOp := func(c, i int) error {
		sp, post := pick(i)
		var (
			rp   reply
			err  error
			want = sp.result
		)
		switch {
		case post && sp.traced:
			rp, err = st.g.do(c, "POST", "/v1/missions?stream=1", sp.raw)
			want = sp.stream
		case post:
			rp, err = st.g.do(c, "POST", "/v1/missions", sp.raw)
		default:
			rp, err = st.g.do(c, "GET", "/v1/missions/"+sp.digest, nil)
		}
		if err != nil {
			return err
		}
		if rp.status != http.StatusOK || rp.cache != "hit" {
			return fmt.Errorf("status %d, X-Cache %q", rp.status, rp.cache)
		}
		if !bytes.Equal(rp.body, want) {
			return fmt.Errorf("body differs from its pre-warm bytes")
		}
		if i < minOps {
			docs.put(i, resultDoc(rp.body))
		}
		return nil
	}
	d := r.duration()
	if r.traced {
		d /= 2
	}
	runtime.GC()
	l := closedLoop(serveClients, d, minOps, r.maxOps, httpOp)
	r.count(l)
	if !r.traced {
		r.endToEndMetrics(setup, l)
		r.digest = digestOf(docs.prefix(minOps))
		return nil
	}

	// The traced phase replays the handler in process on the same server
	// and op sequence; HTTP cost is the untraced median minus the traced.
	tr := r.tr
	var n replayCounts
	docs = opDocs{}
	maxOps := r.maxOps
	if maxOps == 0 {
		maxOps = hotTracedCap
	}
	runtime.GC()
	lr := closedLoop(serveClients, d, minOps, maxOps, func(c, i int) error {
		sp, post := pick(i)
		root := tr.begin("op", i, -1)
		var (
			result, trc []byte
			hit         bool
			err         error
		)
		if post {
			result, trc, hit, _, err = replayPost(st.g.srv, sp.raw, tenants[c], i, root, tr, &n)
		} else {
			result, trc, hit = replayGet(st.g.srv, sp.digest, i, root, tr, &n)
		}
		body := result
		if post && sp.traced {
			body = append(append(append([]byte(nil), trc...), '\n'), result...)
		}
		tr.end(root)
		if err != nil {
			return err
		}
		n.bodies.Add(1)
		n.bodyBytes.Add(int64(len(body)))
		want := sp.result
		if post && sp.traced {
			want = sp.stream
		}
		if !hit || !bytes.Equal(body, want) {
			return fmt.Errorf("replay: hit=%v, body equal=%v", hit, bytes.Equal(body, want))
		}
		if i < minOps {
			docs.put(i, result)
		}
		return nil
	})
	r.count(lr)
	serveLayers(r.metrics, l.lat.quantile(0.5), lr.lat.quantile(0.5), &n)
	r.digest = digestOf(docs.prefix(minOps))
	return nil
}

// --------------------------------------------------------------- serve-cold

// serve-cold: every request is a distinct mission, so the engines run
// under the server on every request and the cache only fills and evicts.
const (
	coldDigestOps  = 100
	coldCheckEvery = 20 // every 20th op is compared with serve.Oneshot
	coldWarmups    = 8
	// coldCacheBytes is small enough that the traced missions' canonical
	// traces (~0.5 MB each at side 32) fill it and force evictions within
	// one run; the default 64 MiB takes longer than a run to fill.
	coldCacheBytes = 16 << 20
)

// coldSpec is one serve-cold mission. twin is the same mission without
// the execution-strategy fields, which the digest excludes: its Oneshot
// bytes must equal the served bytes.
type coldSpec struct {
	raw, twin []byte
	stream    bool // requested with ?stream=1
	shard     bool // engine shard, shards 2, workers 2
	traced    bool // trace:true
}

// coldDeck is the mission mix of one block of 20 consecutive ops, by
// slot: 6 labeling side 16, 5 side 32, 4 side 64, 1 on the shard engine,
// 2 traced side 32 (one streamed), 2 floods. Every block holds the mix
// exactly, in an order shuffled per block, so a run's mix — and with it
// the op at its median latency — does not move with the seed.
const coldBlock = 20

var coldDeck = [coldBlock]byte{
	'a', 'a', 'a', 'a', 'a', 'a', // labeling side 16
	'b', 'b', 'b', 'b', 'b', // labeling side 32
	'c', 'c', 'c', 'c', // labeling side 64
	's',      // shard engine, side 16/32/64 in turn by block
	'T', 't', // traced side 32 with loss, streamed and not
	'F', 'f', // flood side 16; every third flood adds churn and crashes
}

func coldOp(seed int64, i int) coldSpec {
	block := i / coldBlock
	if i < 0 && i%coldBlock != 0 {
		block--
	}
	perm := [coldBlock]int{}
	for k := range perm {
		perm[k] = k
	}
	ps := opStream(^seed, block)
	for k := coldBlock - 1; k > 0; k-- {
		j := ps.intn(k + 1)
		perm[k], perm[j] = perm[j], perm[k]
	}
	kind := coldDeck[perm[i-block*coldBlock]]

	s := opStream(seed, i)
	ms := s.seed63()
	fields := []string{"blobs", "gradient", "stripes", "solid"}
	label := func(side int, field, extra string) string {
		return fmt.Sprintf(`{"workload":"labeling","side":%d,"seed":%d,"field":%q%s}`, side, ms, field, extra)
	}
	var c coldSpec
	var spec string
	switch kind {
	case 'a':
		spec = label(16, fields[s.intn(4)], "")
	case 'b':
		spec = label(32, fields[1+s.intn(2)], "")
	case 'c':
		spec = label(64, "blobs", "")
	case 's':
		spec = label(16<<((block%3+3)%3), fields[s.intn(4)], "")
		c.shard = true
	case 'T', 't':
		spec = label(32, "blobs", `,"loss":0.01,"trace":true`)
		c.traced, c.stream = true, kind == 'T'
	case 'F', 'f':
		flood, hazards := 2*block, ""
		if kind == 'f' {
			flood++
		}
		if (flood%3+3)%3 == 0 {
			hazards = `,"churn_rate":1,"crash_frac":0.05`
		}
		spec = fmt.Sprintf(`{"workload":"flood","side":16,"seed":%d,"density":8,"floods":4%s}`, ms, hazards)
	}
	c.twin = []byte(spec)
	c.raw = c.twin
	if c.shard {
		c.raw = []byte(spec[:len(spec)-1] + `,"engine":"shard","shards":2,"workers":2}`)
	}
	return c
}

// coldHTTP submits op i over HTTP and returns its result document.
func coldHTTP(g *serveRig, seed int64, c, i int) ([]byte, error) {
	cs := coldOp(seed, i)
	path := "/v1/missions"
	if cs.stream {
		path += "?stream=1"
	}
	rp, err := g.do(c, "POST", path, cs.raw)
	if err != nil {
		return nil, err
	}
	if rp.status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", cs.raw, rp.status, rp.body)
	}
	doc := resultDoc(rp.body)
	if bytes.HasPrefix(doc, []byte(`{"error"`)) {
		return nil, fmt.Errorf("%s: %s", cs.raw, doc)
	}
	return doc, nil
}

// keepCold reports whether op i's document is kept: the digest prefix,
// every coldCheckEvery-th op, and every shard-engine op.
func keepCold(seed int64, i, minOps int) bool {
	return i < minOps || i%coldCheckEvery == 0 || coldOp(seed, i).shard
}

// checkCold compares kept documents with serve.Oneshot of each op's
// single-engine twin, after timing: byte equality covers both the
// served bytes and the shard engine's checksum against its twin's.
func checkCold(r *run, docs *opDocs) {
	idx := make([]int, 0, len(docs.docs))
	for i := range docs.docs {
		if i%coldCheckEvery == 0 || coldOp(r.seed, i).shard {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		cs := coldOp(r.seed, i)
		want, _, err := serve.Oneshot(cs.twin)
		if err != nil {
			r.problem("op %d: oneshot %s: %v", i, cs.twin, err)
			continue
		}
		if !bytes.Equal(docs.docs[i], want) {
			r.problem("op %d: served result differs from oneshot of %s", i, cs.twin)
		}
	}
}

func runServeCold(r *run) error {
	g, setup, err := repeatSetup(r.setupReps, func() (*serveRig, error) {
		g := newServeRig(coldCacheBytes)
		l := closedLoop(serveClients, 0, coldWarmups, coldWarmups, func(c, k int) error {
			_, err := coldHTTP(g, warmSeed, c, -2-k)
			return err
		})
		if l.failed > 0 {
			g.close()
			return g, fmt.Errorf("%d warm-up missions failed", l.failed)
		}
		return g, nil
	}, (*serveRig).close)
	if err != nil {
		return err
	}
	defer g.close()
	minOps := r.minOrDefault(coldDigestOps)
	d := r.duration()
	if r.traced {
		d /= 2
	}

	var docs opDocs
	runtime.GC()
	l := closedLoop(serveClients, d, minOps, r.maxOps, func(c, i int) error {
		doc, err := coldHTTP(g, r.seed, c, i)
		if err == nil && keepCold(r.seed, i, minOps) {
			docs.put(i, doc)
		}
		return err
	})
	r.count(l)
	checkCold(r, &docs)
	if !r.traced {
		r.endToEndMetrics(setup, l)
		r.digest = digestOf(docs.prefix(minOps))
		return nil
	}

	// Traced phase: the handler replayed in process on a fresh server
	// (empty cache) over the same op sequence.
	srv := newServer(coldCacheBytes)
	defer srv.Close()
	tr := r.tr
	var (
		n        replayCounts
		mu       sync.Mutex
		overhead []float64
	)
	docs = opDocs{}
	runtime.GC()
	lr := closedLoop(serveClients, d, minOps, r.maxOps, func(c, i int) error {
		cs := coldOp(r.seed, i)
		root := tr.begin("op", i, -1)
		result, _, _, exec, err := replayPost(srv, cs.raw, tenants[c], i, root, tr, &n)
		tr.end(root)
		if err != nil {
			return err
		}
		n.bodies.Add(1)
		n.bodyBytes.Add(int64(len(result)))
		if keepCold(r.seed, i, minOps) {
			docs.put(i, result)
		}
		if cs.traced && exec > 0 {
			// The same mission with tracing off, outside the op's span.
			spec, err := serve.DecodeSpec(bytes.NewReader(cs.raw))
			if err != nil {
				return err
			}
			norm := spec.Normalize()
			norm.Trace = false
			rr := tr.begin("trace.rerun", i, -1)
			t0 := time.Now()
			_, _, err = serve.Execute(&norm, nil)
			off := time.Since(t0)
			tr.end(rr)
			if err != nil {
				return err
			}
			mu.Lock()
			overhead = append(overhead, (exec - off).Seconds())
			mu.Unlock()
		}
		return nil
	})
	r.count(lr)
	checkCold(r, &docs)
	serveLayers(r.metrics, l.lat.quantile(0.5), lr.lat.quantile(0.5), &n)
	r.metrics["serve.cache.evictions"] = float64(n.puts.Load() - int64(srv.Cache().Stats().Entries))
	r.metrics["trace.overhead.p50_ms"] = percentile(overhead, 0.5) * 1e3
	r.digest = digestOf(docs.prefix(minOps))
	return nil
}
