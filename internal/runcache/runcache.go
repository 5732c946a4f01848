// Package runcache is the content-addressed result cache behind the
// scenario-serving daemon (cmd/ffcd): identical declarative scenarios
// are solved once and served from memory thereafter.
//
// A cache key is the SHA-256 of the scenario's canonical bytes
// (scenario.Spec.Canonical) plus any extra key material — the daemon
// appends the canonical fault spec — length-prefixed so distinct part
// splits can never collide (see KeyOf). Values are opaque byte slices;
// the daemon stores the fully rendered report JSON, which is what
// makes cache hits byte-identical to the original miss by
// construction.
//
// Do is a combined lookup/compute/insert with single-flight
// semantics: when several callers ask for the same missing key
// concurrently, exactly one runs the solver and the rest wait for its
// result, so a thundering herd of identical requests costs one solve.
// Eviction is LRU, bounded both by entry count and by total value
// bytes. Errors are never cached — a failed solve leaves the key
// absent so the next caller retries.
//
// The cache is a deterministic kernel under ffcvet (no clocks, no
// entropy: recency is tracked by list position, not timestamps), and
// every instrument it keeps is exported via Snapshot for the daemon's
// /metrics endpoint; docs/SERVING.md documents the counter names.
package runcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"github.com/nettheory/feedbackflow/internal/obs"
)

// Key is a content address: the SHA-256 of the canonical request
// material.
type Key [sha256.Size]byte

// KeyOf hashes the given parts into a Key. Each part is prefixed with
// its length, so the part boundaries are part of the address:
// KeyOf(a, bc) differs from KeyOf(ab, c).
//
// Every cached key must be canonical, so only canonical material (a
// scenario's canonical bytes, a fault config's round-trip form) should
// be hashed: raw request bytes would let a client mint distinct keys
// for equivalent runs.
func KeyOf(parts ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// call is one in-flight solve; waiters block on done.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// entry is one cached value on the LRU list.
type entry struct {
	key Key
	val []byte
}

// Cache is a bounded, concurrency-safe LRU of solved results with
// single-flight deduplication. The zero value is not usable; call New.
type Cache struct {
	maxEntries int
	maxBytes   int64

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[Key]*list.Element
	bytes    int64
	inflight map[Key]*call

	reg       *obs.Registry
	hits      *obs.Counter
	misses    *obs.Counter
	dedup     *obs.Counter
	evictions *obs.Counter
	oversize  *obs.Counter
	errors    *obs.Counter
}

// New returns a cache bounded to maxEntries entries and maxBytes total
// value bytes. A bound <= 0 means "unbounded" on that axis; a value
// larger than maxBytes on its own is never cached (it would evict the
// entire working set for one entry).
func New(maxEntries int, maxBytes int64) *Cache {
	reg := obs.NewRegistry()
	c := &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		entries:    make(map[Key]*list.Element),
		inflight:   make(map[Key]*call),
		reg:        reg,
		hits:       reg.Counter("runcache.hits"),
		misses:     reg.Counter("runcache.misses"),
		dedup:      reg.Counter("runcache.dedup_waits"),
		evictions:  reg.Counter("runcache.evictions"),
		oversize:   reg.Counter("runcache.oversize"),
		errors:     reg.Counter("runcache.errors"),
	}
	// The occupancy gauges read the cache's state under its lock when
	// scraped, so they cannot go stale between inserts.
	reg.GaugeFunc("runcache.entries", func() float64 { return float64(c.Len()) })
	reg.GaugeFunc("runcache.bytes", func() float64 { return float64(c.Bytes()) })
	reg.GaugeFunc("runcache.inflight", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.inflight))
	})
	return c
}

// Snapshot returns the cache telemetry keyed by instrument name, in
// the shape expvar.Func expects.
func (c *Cache) Snapshot() map[string]interface{} { return c.reg.Snapshot() }

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total cached value bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Do returns the value for key, computing it with solve on a miss.
// The returned slice is the cached value itself — callers must not
// mutate it. cached reports whether the value was served without
// running solve in this call: true for a cache hit and for a waiter
// coalesced onto another caller's in-flight solve, false for the
// caller that ran solve.
//
// Exactly one caller runs solve per missing key at a time; concurrent
// callers with the same key block until it finishes and share its
// outcome (including its error, though errors are not cached — the
// next Do after a failure solves again). A waiter whose ctx is done
// stops waiting and returns ctx.Err(); the solve itself is not
// cancelled, since its result remains useful to everyone else.
func (c *Cache) Do(ctx context.Context, key Key, solve func() ([]byte, error)) (val []byte, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		c.hits.Inc()
		c.mu.Unlock()
		return v, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.dedup.Inc()
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, true, cl.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	c.misses.Inc()
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = solve()

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.add(key, cl.val)
	} else {
		c.errors.Inc()
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, false, cl.err
}

// Get returns the cached value for key without computing anything.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*entry).val, true
}

// add inserts the value and evicts from the cold end until both
// bounds hold again. Callers hold c.mu.
//
//ffc:locked
func (c *Cache) add(key Key, val []byte) {
	if c.maxBytes > 0 && int64(len(val)) > c.maxBytes {
		c.oversize.Inc()
		return
	}
	if el, ok := c.entries[key]; ok {
		// A racing solve for the same key can land twice only through
		// distinct Do calls separated in time (the inflight map serializes
		// concurrent ones); keep the newer value.
		c.bytes += int64(len(val)) - int64(len(el.Value.(*entry).val))
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&entry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for (c.maxEntries > 0 && len(c.entries) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.val))
		c.evictions.Inc()
	}
}
