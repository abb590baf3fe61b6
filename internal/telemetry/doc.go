// Package telemetry is a zero-dependency, allocation-conscious metrics
// registry with a Prometheus text-format encoder.
//
// A Registry holds metric families — counters and fixed-bucket latency
// histograms split by a small set of labels, plus scrape-time families
// (CollectFunc) that read counter or gauge values from existing stats —
// and renders them in the Prometheus text exposition format (version
// 0.0.4) via WritePrometheus. Families declare their HELP and TYPE at
// registration, and the encoder always emits those header lines even
// for families that have recorded no samples yet, so the set of metric
// names and types exposed by a process is fixed at startup and can be
// golden-file tested.
//
// Hot-path instruments are built for the solve fast path: Counter.Inc
// is a single atomic operation, Histogram.Observe is a bounded bucket
// scan plus two atomic adds, and vec children returned by With are
// stable pointers the caller caches once, so steady-state recording
// performs no map lookups and no allocation.
//
// The package also issues compact per-request trace IDs (NewTraceID)
// and threads them through context.Context (WithTraceID, TraceID) so
// a request can be correlated across structured logs, Stats and error
// responses.
package telemetry
