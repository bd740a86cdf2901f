package serve

import (
	"sync"
)

// Cache is the content-addressed result store: digest -> (result bytes,
// canonical trace bytes), LRU-evicted under a byte budget. Because the
// key is a cryptographic digest of (code version, canonical spec) and
// every mission is a pure function of that pair, a hit is exactly as
// good as a run — the conformance suite pins byte equality — so the
// cache converts determinism into throughput: bench/'s serve-hot and
// serve-cold workloads measure the multiplier.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	size    int64
	entries map[string]*centry
	// LRU list: head is most recently used, tail gets evicted.
	head, tail *centry

	hits, misses int64
}

type centry struct {
	key           string
	result, trace []byte
	prev, next    *centry
}

func (e *centry) bytes() int64 { return int64(len(e.result) + len(e.trace)) }

// NewCache returns a cache bounded at budget bytes of stored payload
// (budget <= 0 selects a 64 MiB default).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &Cache{budget: budget, entries: make(map[string]*centry)}
}

// Get returns the stored result and trace for a digest, marking the
// entry most recently used. The boolean reports the hit; the counters
// feed /v1/stats and the zero-recompute property test.
func (c *Cache) Get(key string) (result, trace []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.result, e.trace, true
}

// Put stores a mission's bytes under its digest. Storing an existing
// key refreshes recency but keeps the first bytes — content addressing
// means a second computation could not have produced anything else. An
// entry larger than the whole budget is not stored.
func (c *Cache) Put(key string, result, trace []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.unlink(e)
		c.pushFront(e)
		return
	}
	e := &centry{key: key, result: result, trace: trace}
	if e.bytes() > c.budget {
		return
	}
	c.entries[key] = e
	c.pushFront(e)
	c.size += e.bytes()
	for c.size > c.budget && c.tail != nil {
		ev := c.tail
		c.unlink(ev)
		delete(c.entries, ev.key)
		c.size -= ev.bytes()
	}
}

func (c *Cache) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFront(e *centry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// CacheStats is the cache's observable state, served by /v1/stats.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Entries: len(c.entries), Bytes: c.size, Budget: c.budget,
	}
}
