package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets are the default upper bounds (seconds) for latency
// histograms. They span cache hits (sub-microsecond) through cold
// large-instance solves (tens of seconds).
var DefLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}

// A Registry holds a fixed set of metric families. Families are
// registered once, at setup; recording through the returned instruments
// is safe for concurrent use and allocation-free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one metric family: a name, HELP/TYPE metadata, a label
// schema and the set of recorded children (one per label-value tuple).
type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf

	// collect, when non-nil, makes this a scrape-time family: instead
	// of storing children it is invoked at encode time to emit samples
	// synthesized from external state.
	collect func(emit func(value float64, labelValues ...string))

	mu       sync.Mutex
	children map[string]*child
}

// child holds the sample state for one label-value tuple.
type child struct {
	values []string

	count   atomic.Int64   // counter value
	counts  []atomic.Int64 // histogram bucket counts; last entry is +Inf
	sumBits atomic.Uint64  // histogram sum (float64 bits)
}

func (r *Registry) register(name, help, typ string, buckets []float64, labels []string) *family {
	checkName(name, "metric")
	for _, l := range labels {
		checkName(l, "label")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic("telemetry: duplicate metric family " + name)
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		buckets:  normalizeBuckets(buckets),
		children: make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

func checkName(s, what string) {
	if s == "" {
		panic("telemetry: empty " + what + " name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic("telemetry: invalid " + what + " name " + strconv.Quote(s))
		}
	}
}

func normalizeBuckets(b []float64) []float64 {
	out := make([]float64, 0, len(b))
	for _, ub := range b {
		if !math.IsInf(ub, +1) && !math.IsNaN(ub) {
			out = append(out, ub)
		}
	}
	sort.Float64s(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			panic("telemetry: duplicate histogram bucket bound")
		}
	}
	return out
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	if f.typ == "histogram" {
		c.counts = make([]atomic.Int64, len(f.buckets)+1)
	}
	f.children[key] = c
	return c
}

// CounterVec registers a counter family split by the given labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", nil, labels)}
}

// HistogramVec registers a histogram family split by the given labels.
// A nil buckets slice uses DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	return &HistogramVec{r.register(name, help, "histogram", buckets, labels)}
}

// CollectFunc registers a scrape-time family: collect is invoked during
// WritePrometheus and emits each sample through its callback. Use it for
// values synthesized from existing stats structs (cache, pool, store)
// rather than recorded on the hot path. typ must be "counter" or
// "gauge". The emit callback must be called with exactly len(labels)
// label values, in registration order, and only from within collect.
func (r *Registry) CollectFunc(name, help, typ string, labels []string, collect func(emit func(value float64, labelValues ...string))) {
	if typ != "counter" && typ != "gauge" {
		panic("telemetry: CollectFunc type must be counter or gauge, got " + typ)
	}
	f := r.register(name, help, typ, nil, labels)
	f.collect = collect
}

// Counter is a monotonically increasing counter.
type Counter struct{ c *child }

// Inc adds 1.
func (c *Counter) Inc() { c.c.count.Add(1) }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. The returned pointer is stable: cache it at setup and the
// hot path performs no map lookups.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{v.f.child(labelValues)}
}

// Histogram is a fixed-bucket histogram of float64 observations
// (conventionally seconds).
type Histogram struct {
	c       *child
	buckets []float64
}

// Observe records one observation: a bounded bucket scan plus two
// atomic operations.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.c.counts[i].Add(1)
	addFloat(&h.c.sumBits, v)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (see
// CounterVec.With).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{c: v.f.child(labelValues), buckets: v.f.buckets}
}

func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4). Families are sorted by name
// and children by label values, so the output is deterministic; HELP
// and TYPE header lines are emitted even for families with no samples,
// making the exposed name/type set independent of traffic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b []byte
	for _, f := range fams {
		b = f.encode(b[:0])
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) encode(b []byte) []byte {
	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = appendEscapedHelp(b, f.help)
	b = append(b, "\n# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.typ...)
	b = append(b, '\n')

	if f.collect != nil {
		f.collect(func(value float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("telemetry: %s collect emitted %d label values, want %d",
					f.name, len(labelValues), len(f.labels)))
			}
			b = appendSample(b, f.name, f.labels, labelValues, "", value)
		})
		return b
	}

	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()

	for _, c := range children {
		switch f.typ {
		case "counter":
			b = appendSample(b, f.name, f.labels, c.values, "", float64(c.count.Load()))
		case "histogram":
			b = c.encodeHistogram(b, f)
		}
	}
	return b
}

func (c *child) encodeHistogram(b []byte, f *family) []byte {
	var cum int64
	for i, ub := range f.buckets {
		cum += c.counts[i].Load()
		b = appendSample(b, f.name+"_bucket", f.labels, c.values,
			strconv.FormatFloat(ub, 'g', -1, 64), float64(cum))
	}
	cum += c.counts[len(f.buckets)].Load()
	b = appendSample(b, f.name+"_bucket", f.labels, c.values, "+Inf", float64(cum))
	b = appendSample(b, f.name+"_sum", f.labels, c.values, "",
		math.Float64frombits(c.sumBits.Load()))
	b = appendSample(b, f.name+"_count", f.labels, c.values, "", float64(cum))
	return b
}

// appendSample writes one `name{labels} value` line. le, when non-empty,
// is appended as the trailing le="..." bucket label.
func appendSample(b []byte, name string, labels, values []string, le string, v float64) []byte {
	b = append(b, name...)
	if len(labels) > 0 || le != "" {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l...)
			b = append(b, '=', '"')
			b = appendEscapedLabel(b, values[i])
			b = append(b, '"')
		}
		if le != "" {
			if len(labels) > 0 {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			b = append(b, le...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = appendFloat(b, v)
	return append(b, '\n')
}

func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, +1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}

func appendEscapedLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '"':
			b = append(b, `\"`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}
