package bcclap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcclap/internal/telemetry"
)

// A flooding rate-limited tenant must not starve a well-behaved one, and
// its gate, not luck, is what keeps the flood off the shared service.
// Tenant "noisy" is flooded from many goroutines behind a tight gate;
// tenant "quiet" keeps solving sequentially on the same Service. Quiet's
// answers must stay bit-identical to its unloaded baseline and its gate
// must never queue or reject, while the flood piles up rejections on
// noisy. Over the flood window noisy's admissions stay within what its
// token bucket allows, and each admitted noisy solve is a warm start with
// no path step, so the flood's admitted work is bounded and cheap. Run
// under -race.
func TestQoSNoStarvation(t *testing.T) {
	const rate, burst = 5.0, 1
	dNoisy, dQuiet := testFlowNetwork(5, 51), testFlowNetwork(6, 52)
	svc := NewService(WithSeed(9), WithPoolSize(2))
	defer svc.Close()

	noisy, err := svc.Register("noisy", dNoisy,
		WithRateLimit(rate, burst), WithMaxInFlight(1), WithQueueDepth(2), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := svc.Register("quiet", dQuiet, WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	base, err := quiet.Solve(ctx, 0, dQuiet.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	// Prime noisy until the worker its pair is pinned to has answered it:
	// from then on every admitted noisy solve re-centers that answer.
	for warm := false; !warm; {
		res, err := noisy.Solve(ctx, 0, dNoisy.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		warm = res.Stats.WarmStarted
		if !warm && noisy.Stats().Pool.Completed > 2 {
			t.Fatalf("noisy pair not warm-started after %d solves", noisy.Stats().Pool.Completed)
		}
	}

	var (
		wg                 sync.WaitGroup
		rejected, admitted atomic.Int64
		stop               = make(chan struct{})
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := noisy.Solve(ctx, 0, dNoisy.N()-1)
				switch {
				case err == nil:
					admitted.Add(1)
					if !res.Stats.WarmStarted || res.Stats.PathSteps != 0 {
						t.Errorf("admitted noisy solve: warm %v, %d path steps; want a warm start with none",
							res.Stats.WarmStarted, res.Stats.PathSteps)
					}
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				default:
					t.Errorf("flood got a non-admission error: %v", err)
					return
				}
			}
		}()
	}

	// On a single-P runtime the channel ping-pong between this goroutine
	// and the pool workers can keep the flood goroutines parked for the
	// entire (short) quiet loop, so wait until the flood is demonstrably
	// engaged — at least one rejection recorded — before measuring.
	for deadline := time.Now().Add(10 * time.Second); rejected.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("flood produced no rejection within 10s; the gate is not limiting")
		}
		time.Sleep(time.Millisecond)
	}

	// The window opens before the first count is read and closes after
	// the last, so every admission counted falls inside it.
	start := time.Now()
	before := noisy.Stats().Admission.Admitted
	for i := 0; i < 30; i++ {
		res, err := quiet.Solve(ctx, 0, dQuiet.N()-1)
		if err != nil {
			t.Fatalf("quiet tenant starved at solve %d: %v", i, err)
		}
		if res.Value != base.Value || res.Cost != base.Cost ||
			fmt.Sprint(res.Flows) != fmt.Sprint(base.Flows) {
			t.Fatalf("quiet tenant answer diverged under flood: %+v vs %+v", res, base)
		}
	}
	grew := noisy.Stats().Admission.Admitted - before
	window := time.Since(start)
	close(stop)
	wg.Wait()

	bound := burst + int64(math.Ceil(rate*window.Seconds()))
	t.Logf("flood window %v: noisy admitted %d (bound %d), %d flood solves admitted, %d rejected",
		window, grew, bound, admitted.Load(), rejected.Load())
	if grew > bound {
		t.Errorf("noisy admitted %d queries in %v, want at most burst + ⌈rate·window⌉ = %d", grew, window, bound)
	}
	if admitted.Load() == 0 {
		t.Error("noisy tenant had zero goodput under its own flood")
	}
	ad := noisy.Stats().Admission
	if ad.RejectedQueueFull+ad.RejectedDeadline == 0 {
		t.Errorf("admission stats recorded no rejections: %+v", ad)
	}
	if q := quiet.Stats().Admission; q.Queued != 0 || q.QueueWait != 0 || q.RejectedQueueFull+q.RejectedDeadline != 0 {
		t.Errorf("quiet tenant's (unlimited) gate queued or rejected work: %+v", q)
	}
}

// The telemetry tax on the cached hot path: a hit records its latency
// only once in 64 (the 1-in-64 sample of NetworkHandle.Solve), and
// telemetry adds no allocation to cached solves. Allocations are counted
// over one whole sampling period of 64 hits, so an allocation on the
// sampled hit alone shows too.
func TestQoSTelemetryTax(t *testing.T) {
	d := testFlowNetwork(5, 59)
	ctx := context.Background()
	hot := func(on bool) (*Service, func()) {
		svc := NewService(WithSeed(9), WithPoolSize(1), WithTelemetry(on))
		h, err := svc.Register("hot", d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Solve(ctx, 0, d.N()-1); err != nil { // the one miss
			t.Fatal(err)
		}
		return svc, func() {
			res, err := h.Solve(ctx, 0, d.N()-1)
			if err != nil || !res.Stats.CacheHit {
				t.Fatalf("hot path: hit %v, err %v; want a cache hit", res != nil && res.Stats.CacheHit, err)
			}
		}
	}
	period := func(hit func()) func() {
		return func() {
			for range 64 {
				hit()
			}
		}
	}

	on, hitOn := hot(true)
	defer on.Close()
	const k = 5
	for range 64 * k {
		hitOn()
	}
	var buf bytes.Buffer
	if err := on.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	count := ""
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "bcclap_solve_latency_seconds_count{") && strings.Contains(line, `cache="hit"`) {
			count = line[strings.LastIndexByte(line, ' ')+1:]
		}
	}
	if count != strconv.Itoa(k) {
		t.Errorf("after %d cache hits the hit latency _count is %q, want %d (one sample per 64 hits)", 64*k, count, k)
	}

	off, hitOff := hot(false)
	defer off.Close()
	a, b := testing.AllocsPerRun(8, period(hitOn)), testing.AllocsPerRun(8, period(hitOff))
	t.Logf("64 cached solves: %v allocations with telemetry on, %v off", a, b)
	if a != b {
		t.Errorf("64 cached solves allocate %v times with telemetry on, %v with it off; want equal", a, b)
	}
}

// Satellite: the queue-full path through NetworkHandle.Solve. With the
// queue disabled (WithQueueDepth(0)) and one in-flight slot held, a
// second solve is rejected immediately with ErrOverloaded — and does
// not match context.DeadlineExceeded (nothing was queued).
func TestQoSQueueFull(t *testing.T) {
	d := testFlowNetwork(5, 53)
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("strict", d,
		WithMaxInFlight(1), WithQueueDepth(0), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Limits(); got.MaxInFlight != 1 || got.QueueDepth != -1 {
		t.Fatalf("Limits() = %+v, want MaxInFlight 1 with queueing disabled (-1)", got)
	}

	// Hold the single in-flight slot the way a long solve would.
	rel, err := h.gate.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Solve(context.Background(), 0, d.N()-1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("solve with queue disabled and slot held: %v, want ErrOverloaded", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queue-full rejection must not match DeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), `network "strict"`) {
		t.Fatalf("rejection does not name the tenant: %v", err)
	}
	rel()

	// Slot released: the same query is admitted and solves.
	if _, err := h.Solve(context.Background(), 0, d.N()-1); err != nil {
		t.Fatalf("solve after release: %v", err)
	}
}

// An empty SolveBatch is no request: it returns an empty result without
// passing the gate, so it neither counts as an admission nor spends the
// token the next solve needs.
func TestQoSEmptyBatchSkipsGate(t *testing.T) {
	d := testFlowNetwork(5, 56)
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("sparse", d, WithRateLimit(0.001, 1), WithQueueDepth(0))
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.SolveBatch(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %d results, err %v; want 0 and nil", len(out), err)
	}
	if got := h.Stats().Admission.Admitted; got != 0 {
		t.Fatalf("empty batch counted %d admissions, want 0", got)
	}
	if _, err := h.Solve(context.Background(), 0, d.N()-1); err != nil {
		t.Fatalf("solve after an empty batch: %v, want the bucket's one token", err)
	}
}

// Satellite: the deadline-expired-while-queued path through Solve. The
// request is accepted into the queue (no service-time history yet, so
// no predictive rejection), then its deadline fires while waiting; the
// error must match BOTH ErrOverloaded and context.DeadlineExceeded so
// callers can branch either way.
func TestQoSDeadlineWhileQueued(t *testing.T) {
	d := testFlowNetwork(5, 54)
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("slow", d,
		WithMaxInFlight(1), WithQueueDepth(4), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}

	rel, err := h.gate.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = h.Solve(ctx, 0, d.N()-1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued-past-deadline solve: %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline solve must also match DeadlineExceeded: %v", err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("rejected after %v: predictive path fired, want the queued path", waited)
	}
	if got := h.Stats().Admission; got.Queued != 1 || got.RejectedDeadline != 1 {
		t.Fatalf("admission stats %+v, want 1 queued and 1 deadline rejection", got)
	}

	// Plain cancellation while queued is a cancel, not an overload.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel2() }()
	_, err = h.Solve(ctx2, 0, d.N()-1)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("canceled-while-queued solve: %v, want Canceled and not Overloaded", err)
	}
}

// Register and SetLimits must reject invalid limits before anything is
// journaled or built, with ErrBadLimits.
func TestQoSBadLimits(t *testing.T) {
	d := testFlowNetwork(5, 55)
	svc := NewService(WithSeed(9))
	defer svc.Close()
	if _, err := svc.Register("bad", d, WithRateLimit(-3, 0)); !errors.Is(err, ErrBadLimits) {
		t.Fatalf("negative rate at Register: %v, want ErrBadLimits", err)
	}
	if _, err := svc.Get("bad"); !errors.Is(err, ErrNetworkUnknown) {
		t.Fatal("rejected Register left a registered tenant behind")
	}
	h, err := svc.Register("good", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetLimits(Limits{MaxInFlight: -1}); !errors.Is(err, ErrBadLimits) {
		t.Fatalf("negative in-flight at SetLimits: %v, want ErrBadLimits", err)
	}
	if got := h.Limits(); got != (Limits{}) {
		t.Fatalf("rejected SetLimits changed the gate: %+v", got)
	}
}

// Acceptance (satellite): limits set via options and changed at runtime
// via SetLimits are journaled and come back bit-identical after a
// restart from the same data directory.
func TestQoSLimitsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := testFlowNetwork(5, 56)

	svc, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	// "opt" keeps its registration-time limits; "patched" is retuned at
	// runtime, including disabling its queue (QueueDepth -1 round-trips).
	if _, err := svc.Register("opt", d,
		WithRateLimit(10, 3), WithMaxInFlight(2), WithQueueDepth(8)); err != nil {
		t.Fatal(err)
	}
	hp, err := svc.Register("patched", d, WithRateLimit(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := Limits{RatePerSec: 25, Burst: 5, MaxInFlight: 4, QueueDepth: -1}
	if err := hp.SetLimits(want); err != nil {
		t.Fatal(err)
	}
	if got := hp.Limits(); got != want {
		t.Fatalf("Limits() after SetLimits = %+v, want %+v", got, want)
	}
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	svc2, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	ho, err := svc2.Get("opt")
	if err != nil {
		t.Fatal(err)
	}
	if got := ho.Limits(); got != (Limits{RatePerSec: 10, Burst: 3, MaxInFlight: 2, QueueDepth: 8}) {
		t.Fatalf("registration limits after restart = %+v", got)
	}
	hp2, err := svc2.Get("patched")
	if err != nil {
		t.Fatal(err)
	}
	if got := hp2.Limits(); got != want {
		t.Fatalf("SetLimits limits after restart = %+v, want %+v", got, want)
	}
	// The replayed gate must enforce, not just report: with all four
	// in-flight slots held and the queue disabled, a solve is rejected.
	var rels []func()
	for i := 0; i < want.MaxInFlight; i++ {
		rel, err := hp2.gate.Admit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	if _, err := hp2.Solve(ctx, 0, d.N()-1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("replayed gate did not enforce: %v", err)
	}
	for _, rel := range rels {
		rel()
	}
}

// SetLimits with the queue depth at the gate default (0) must survive a
// later Swap without options exactly as set — not turned into an explicit
// DefaultQueueDepth — in memory and after a durable restart.
func TestSetLimitsSurvivesSwap(t *testing.T) {
	dir := t.TempDir()
	d := testFlowNetwork(5, 57)
	want := Limits{RatePerSec: 5}

	svc, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	h, err := svc.Register("t", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetLimits(want); err != nil {
		t.Fatal(err)
	}
	if err := h.Swap(d); err != nil {
		t.Fatal(err)
	}
	if got := h.Limits(); got != want {
		t.Fatalf("Limits() after SetLimits and Swap = %+v, want %+v", got, want)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	h2, err := svc2.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.Limits(); got != want {
		t.Fatalf("Limits() after restart = %+v, want %+v", got, want)
	}
	if v := h2.Version(); v != 2 {
		t.Fatalf("restarted at version %d, want 2", v)
	}
}

// Repeated SetLimits calls replace the handle's configuration; they must
// not accumulate state on it.
func TestSetLimitsDoesNotGrowHandle(t *testing.T) {
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("t", testFlowNetwork(5, 58))
	if err != nil {
		t.Fatal(err)
	}
	l := Limits{RatePerSec: 5}
	if err := h.SetLimits(l); err != nil {
		t.Fatal(err)
	}
	h.mu.RLock()
	first := h.cfg
	h.mu.RUnlock()
	for i := 0; i < 2; i++ {
		if err := h.SetLimits(l); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if !reflect.DeepEqual(h.cfg, first) {
		t.Fatalf("handle configuration after three SetLimits = %+v, after one = %+v", h.cfg, first)
	}
}

// WriteMetrics must produce output for every registered tenant and must
// be disabled (with a telling error) under WithTelemetry(false).
func TestQoSWriteMetrics(t *testing.T) {
	d := testFlowNetwork(5, 57)
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("prod", d, WithRateLimit(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Solve(context.Background(), 0, d.N()-1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`bcclap_networks 1`,
		`bcclap_admission_admitted_total{tenant="prod"} 1`,
		`bcclap_admission_rate_limit_per_sec{tenant="prod"} 100`,
		`bcclap_pool_submitted_total{tenant="prod"} 1`,
		"# TYPE bcclap_solve_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}

	off := NewService(WithSeed(9), WithTelemetry(false))
	defer off.Close()
	if err := off.WriteMetrics(&buf); err == nil ||
		!strings.Contains(err.Error(), "telemetry disabled") {
		t.Fatalf("WriteMetrics with telemetry off: %v, want a disabled error", err)
	}
}

// A solved result must carry the caller's trace ID, and a cache hit must
// carry the *hitting* call's trace, never the filler's.
func TestQoSTraceIDPropagation(t *testing.T) {
	d := testFlowNetwork(5, 58)
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("prod", d)
	if err != nil {
		t.Fatal(err)
	}
	ctxA := telemetry.WithTraceID(context.Background(), "aaaaaaaaaaaaaaaa")
	resA, err := h.Solve(ctxA, 0, d.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Stats.TraceID != "aaaaaaaaaaaaaaaa" || resA.Stats.CacheHit {
		t.Fatalf("fresh solve stats %+v, want trace a… and no hit", resA.Stats)
	}
	ctxB := telemetry.WithTraceID(context.Background(), "bbbbbbbbbbbbbbbb")
	resB, err := h.Solve(ctxB, 0, d.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Stats.CacheHit || resB.Stats.TraceID != "bbbbbbbbbbbbbbbb" {
		t.Fatalf("cache hit stats %+v, want the hitting call's trace b…", resB.Stats)
	}
	// The first result's trace must not have been clobbered by the hit.
	if resA.Stats.TraceID != "aaaaaaaaaaaaaaaa" {
		t.Fatal("cache hit mutated the original result's trace")
	}
}
