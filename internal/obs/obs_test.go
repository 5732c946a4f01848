package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative deltas are dropped, not subtracted
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("fresh gauge = %v", g.Value())
	}
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Fatalf("gauge = %v, want 3.25", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge = %v, want -1", g.Value())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Add(7)
	if got := r.Counter("events"); got != c {
		t.Fatal("second lookup returned a different counter")
	}
	r.Gauge("load").Set(0.5)
	r.Histogram("depth", 1, 100, 2).Observe(10)

	snap := r.Snapshot()
	if snap["events"].(int64) != 7 {
		t.Fatalf("snapshot events = %v", snap["events"])
	}
	if snap["load"].(float64) != 0.5 {
		t.Fatalf("snapshot load = %v", snap["load"])
	}
	if h := snap["depth"].(HistogramSnapshot); h.Count != 1 {
		t.Fatalf("snapshot depth count = %d", h.Count)
	}
	// The snapshot must be JSON-marshalable as-is: that is how the
	// debug server publishes it through expvar.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	live := 2.0
	r.GaugeFunc("live", func() float64 { return live })
	if got := r.Snapshot()["live"].(float64); got != 2 {
		t.Fatalf("snapshot live = %v, want 2", got)
	}
	live = 5
	if got := r.Snapshot()["live"].(float64); got != 5 {
		t.Fatalf("snapshot live = %v after the state moved, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rebinding a GaugeFunc name did not panic")
		}
	}()
	r.GaugeFunc("live", func() float64 { return 0 })
}
