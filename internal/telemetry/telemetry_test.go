package telemetry

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// count reads a counter's value.
func count(c *Counter) int64 { return c.c.count.Load() }

// observations reads a histogram's total observation count.
func observations(h *Histogram) int64 {
	var n int64
	for i := range h.c.counts {
		n += h.c.counts[i].Load()
	}
	return n
}

func TestVecChildrenStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_solves_total", "solves", "tenant", "cache")
	a := v.With("alpha", "hit")
	b := v.With("alpha", "hit")
	a.Inc()
	b.Inc()
	if count(a) != 2 || count(b) != 2 {
		t.Fatalf("children for identical labels not shared: %d, %d", count(a), count(b))
	}
	other := v.With("beta", "hit")
	if count(other) != 0 {
		t.Fatalf("distinct labels share state: %d", count(other))
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_latency_seconds", "latency", []float64{0.01, 0.1, 1}).With()
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := observations(h); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		`test_latency_seconds_count 4`,
		`test_latency_seconds_sum 5.555`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_b_total", "b counter", "tenant")
	v.With("t\"x\\y\nz").Inc()
	r.CollectFunc("test_a", "a gauge\nwith newline", "gauge", nil,
		func(emit func(float64, ...string)) { emit(math.Inf(1)) })
	r.HistogramVec("test_empty_seconds", "never observed", []float64{1}).With()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Families sorted by name, HELP directly before TYPE.
	ia := strings.Index(out, "# HELP test_a ")
	ib := strings.Index(out, "# HELP test_b_total ")
	ie := strings.Index(out, "# HELP test_empty_seconds ")
	if ia < 0 || ib < 0 || ie < 0 || !(ia < ib && ib < ie) {
		t.Fatalf("families not sorted:\n%s", out)
	}
	// Headers present even for the never-observed histogram, whose
	// child emits a zero-valued skeleton so scrapes see a consistent
	// series set from the first request on.
	for _, want := range []string{
		"# TYPE test_a gauge",
		"# TYPE test_b_total counter",
		"# TYPE test_empty_seconds histogram",
		`a gauge\nwith newline`,
		"test_a +Inf",
		`test_b_total{tenant="t\"x\\y\nz"} 1`,
		`test_empty_seconds_bucket{le="1"} 0`,
		`test_empty_seconds_bucket{le="+Inf"} 0`,
		"test_empty_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCollectFunc(t *testing.T) {
	r := NewRegistry()
	depth := 3.0
	r.CollectFunc("test_queue_depth", "queue depth", "gauge", []string{"tenant"},
		func(emit func(float64, ...string)) {
			emit(depth, "alpha")
			emit(0, "beta")
		})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_queue_depth gauge",
		`test_queue_depth{tenant="alpha"} 3`,
		`test_queue_depth{tenant="beta"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_total", "t").With()
	h := r.HistogramVec("test_lat_seconds", "l", nil, "tenant")

	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := h.With("tenant")
			for i := 0; i < each; i++ {
				c.Inc()
				child.Observe(float64(i%10) * 1e-4)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := count(c); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if got := observations(h.With("tenant")); got != workers*each {
		t.Fatalf("histogram count = %d, want %d", got, workers*each)
	}
}

func TestTraceIDs(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("trace ID %q not lowercase hex", id)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q after %d draws", id, i)
		}
		seen[id] = true
	}

	ctx := WithTraceID(context.Background(), "deadbeefdeadbeef")
	if got := TraceID(ctx); got != "deadbeefdeadbeef" {
		t.Fatalf("TraceID = %q", got)
	}
	if got := TraceID(context.Background()); got != "" {
		t.Fatalf("TraceID on empty ctx = %q, want empty", got)
	}
}
