// Package experiments is the single definition of every experiment
// recorded in EXPERIMENTS.md: for each theorem or lemma of the paper (e1–e12)
// and for each serving-layer property (e15, e16, e19) it builds the
// instances, fixes the seeds and the workload, and measures the bounded
// quantity into a typed result. The retired e17, e18, e20, e21 and e22
// (session reuse, the session pool, the result cache, the durable store
// and tenant QoS) are no longer measured here: each of their gates is a
// counter assertion in an ordinary test (TestFlowSolverBatch,
// TestPoolBatchRunsWorkersConcurrently and the root package's service and
// QoS tests), and bench/ times the same paths through the daemon.
//
// Two callers share these definitions. cmd/bcclap-experiments runs the
// registered experiments (All) and prints their Tables as Markdown. The
// root package's TestBench*Snapshot tests run e16 and e19 at full scale,
// gate the results and write the committed BENCH_*.json snapshots, whose
// layout the results' json tags define; its CI benchmarks time the same
// Workloads step by step.
//
// Every experiment takes a quick flag that shrinks its sweep for a fast
// run; the snapshots always use full scale. e16 and e19 time each
// operation as the median of five repetitions (see Measure).
package experiments
