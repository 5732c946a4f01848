package runcache

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEvictionRacesSingleflight hammers a deliberately tiny cache with
// concurrent Do and Get over a keyspace several times larger than the
// entry bound — the regime a sharded replica pool puts each replica
// in, where the working set never fits and LRU eviction runs
// continuously against singleflight admission. Run under -race, it
// checks that the accounting survives the churn:
//
//   - entries/bytes gauges agree with the cache's actual state, and
//     scrapes racing the churn see both bounds and the in-flight
//     bound hold;
//   - both LRU bounds hold at every quiescent point;
//   - every Do is classified exactly once (hits + misses + dedup
//     waits == calls), and every miss ran the solver exactly once
//     (solves == misses, failed solves excluded from the cache).
func TestEvictionRacesSingleflight(t *testing.T) {
	const (
		keys       = 64
		maxEntries = 8
		maxBytes   = 8 * 128 // entries bound and bytes bound both bind
		goroutines = 16
		iters      = 400
	)
	c := New(maxEntries, maxBytes)

	var solves, failures, getHits, doCalls atomic.Int64
	keyOf := func(i int) Key { return KeyOf([]byte(fmt.Sprintf("scenario-%03d", i))) }
	val := make([]byte, 100)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// A skewed walk: neighbors collide often enough to
				// exercise singleflight while the tail forces eviction.
				k := (g*i + i*i) % keys
				if i%7 == 0 {
					if _, ok := c.Get(keyOf(k)); ok { // reads race the evictions too
						getHits.Add(1)
					}
					continue
				}
				doCalls.Add(1)
				fail := i%31 == 0
				_, _, err := c.Do(context.Background(), keyOf(k), func() ([]byte, error) {
					solves.Add(1)
					if fail {
						failures.Add(1)
						return nil, fmt.Errorf("transient solve failure")
					}
					return val, nil
				})
				if err != nil && !fail {
					// A waiter coalesced onto a failing solve also sees
					// the error; that is the documented sharing contract,
					// not a bug — only unexpected errors fail the test.
					if err.Error() != "transient solve failure" {
						t.Errorf("Do: %v", err)
					}
				}
			}
		}(g)
	}
	// The gauges are read from the cache under its lock when scraped,
	// so a scrape racing the churn sees a state between two operations.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := c.Snapshot()
			if e := snap["runcache.entries"].(float64); e > maxEntries {
				t.Errorf("scrape: entries %v exceed bound %d", e, maxEntries)
			}
			if b := snap["runcache.bytes"].(float64); b > maxBytes {
				t.Errorf("scrape: bytes %v exceed bound %d", b, maxBytes)
			}
			if f := snap["runcache.inflight"].(float64); f > goroutines {
				t.Errorf("scrape: %v solves in flight from %d goroutines", f, goroutines)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped

	// Quiescent invariants: bounds hold and the gauges the /metrics
	// endpoint exports agree with the cache's ground truth.
	if n := c.Len(); n > maxEntries {
		t.Errorf("entries %d exceed bound %d after churn", n, maxEntries)
	}
	if b := c.Bytes(); b > maxBytes {
		t.Errorf("bytes %d exceed bound %d after churn", b, maxBytes)
	}
	snap := c.Snapshot()
	if got, want := snap["runcache.entries"].(float64), float64(c.Len()); got != want {
		t.Errorf("entries gauge %v != Len() %v", got, want)
	}
	if got, want := snap["runcache.bytes"].(float64), float64(c.Bytes()); got != want {
		t.Errorf("bytes gauge %v != Bytes() %v", got, want)
	}
	if got := snap["runcache.inflight"].(float64); got != 0 {
		t.Errorf("inflight gauge %v after quiescence, want 0", got)
	}

	// Every Do classified exactly once: a call lands in hits, misses,
	// or dedup_waits and nowhere else. Get() shares the hits counter
	// but only on a found key, so its hits are tracked by the loop.
	hits := snap["runcache.hits"].(int64)
	misses := snap["runcache.misses"].(int64)
	dedup := snap["runcache.dedup_waits"].(int64)
	if want := doCalls.Load() + getHits.Load(); hits+misses+dedup != want {
		t.Errorf("hits %d + misses %d + dedup %d != Do calls + Get hits %d", hits, misses, dedup, want)
	}
	if misses != solves.Load() {
		t.Errorf("misses %d != solver invocations %d (singleflight leak)", misses, solves.Load())
	}
	if errs := snap["runcache.errors"].(int64); errs != failures.Load() {
		t.Errorf("errors counter %d != failed solves %d", errs, failures.Load())
	}
}
