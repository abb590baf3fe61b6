package pool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcclap/internal/flow"
	"bcclap/internal/graph"
)

// fakeSession is an instrumented Session: it asserts single-goroutine
// confinement (the pool's core invariant), reproduces the sequential
// warm-start semantics with a per-pair counter, and can be slowed down to
// exercise drain and abort paths. The pair map is intentionally unlocked —
// under -race, any pool bug that lets two goroutines into one session
// shows up both as the busy-flag error and as a data race.
type fakeSession struct {
	t     *testing.T
	n     int           // vertex count for Validate
	delay time.Duration // per-solve latency, context-aware
	busy  atomic.Int32
	pair  map[flow.Query]int
}

func newFake(t *testing.T, n int, delay time.Duration) *fakeSession {
	return &fakeSession{t: t, n: n, delay: delay, pair: map[flow.Query]int{}}
}

func (f *fakeSession) Validate(q flow.Query) error {
	if q.S < 0 || q.T < 0 || q.S >= f.n || q.T >= f.n || q.S == q.T {
		return fmt.Errorf("fake: %w", flow.ErrBadQuery)
	}
	return nil
}

func (f *fakeSession) ApplyArcDeltas([]graph.ArcDelta) error { return nil }

func (f *fakeSession) Solve(ctx context.Context, q flow.Query, warm bool) (*flow.Result, error) {
	if !f.busy.CompareAndSwap(0, 1) {
		f.t.Error("two goroutines entered one session concurrently")
	}
	defer f.busy.Store(0)
	if f.delay > 0 {
		timer := time.NewTimer(f.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := 0
	if warm {
		k = f.pair[q]
		f.pair[q]++
	}
	return &flow.Result{
		Value:       int64(q.S*1000 + q.T),
		Cost:        int64(k),
		WarmStarted: warm && k > 0,
	}, nil
}

func fakePool(t *testing.T, workers int, delay time.Duration) *Pool {
	t.Helper()
	p, err := New(Config{
		Workers: workers,
		New:     func(int) (Session, error) { return newFake(t, 16, delay), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// A pooled batch must reproduce the sequential batch semantics at every
// worker count: the k-th occurrence of a terminal pair sees exactly k
// prior solves of that pair (warm-start order), regardless of how the
// batch interleaves across workers.
func TestPoolBatchSemantics(t *testing.T) {
	queries := []flow.Query{
		{S: 0, T: 5}, {S: 1, T: 5}, {S: 0, T: 5}, {S: 2, T: 7},
		{S: 1, T: 5}, {S: 0, T: 5}, {S: 3, T: 9}, {S: 2, T: 7},
	}
	wantRepeat := map[flow.Query]int{}
	wantCost := make([]int64, len(queries))
	for i, q := range queries {
		wantCost[i] = int64(wantRepeat[q])
		wantRepeat[q]++
	}
	// Worker counts below the floor are raised to one worker.
	for _, w := range []int{-1, 0, 1, 2, 3, 4, 5} {
		p := fakePool(t, w, 0)
		if want := max(w, 1); p.Workers() != want {
			t.Fatalf("workers %d: %d workers, want exactly %d", w, p.Workers(), want)
		}
		out, err := p.SolveBatch(context.Background(), queries)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		for i, res := range out {
			if res.Value != int64(queries[i].S*1000+queries[i].T) {
				t.Fatalf("workers %d query %d: wrong value %d", w, i, res.Value)
			}
			if res.Cost != wantCost[i] {
				t.Fatalf("workers %d query %d: per-pair order broken: repeat %d, want %d",
					w, i, res.Cost, wantCost[i])
			}
			if res.WarmStarted != (wantCost[i] > 0) {
				t.Fatalf("workers %d query %d: WarmStarted=%v, want %v",
					w, i, res.WarmStarted, wantCost[i] > 0)
			}
		}
		st := p.Stats()
		if st.Submitted != int64(len(queries)) || st.Completed != int64(len(queries)) || st.Failed != 0 {
			t.Fatalf("workers %d stats: %+v", w, st)
		}
	}
}

// Multi-worker routing: a pair always lands on one worker, fixed by the
// splitmix64 hash modulo the worker count, and distinct pairs spread over
// every worker. The golden indices pin the routing the FlowSolver has
// always used (one worker per hash bucket), so a routing change that
// would move warm-start state between workers shows up here.
func TestPoolRoutingPinsPairs(t *testing.T) {
	golden := map[int][]int{
		2: {1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1},
		3: {2, 1, 0, 1, 0, 0, 1, 0, 2, 2, 2, 1},
		5: {0, 0, 3, 1, 4, 3, 2, 4, 0, 0, 2, 0},
	}
	for workers, want := range golden {
		p := fakePool(t, workers, 0)
		var got []int
		for s := 0; s < 4; s++ {
			for tt := 0; tt < 4; tt++ {
				if s != tt {
					got = append(got, p.workerFor(flow.Query{S: s, T: tt}).id)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: pairs routed to %v, want %v", workers, got, want)
		}
		used := map[int]bool{}
		for s := 0; s < 16; s++ {
			for tt := 0; tt < 16; tt++ {
				if s == tt {
					continue
				}
				q := flow.Query{S: s, T: tt}
				w := p.workerFor(q)
				if again := p.workerFor(q); again != w {
					t.Fatalf("%d workers: pair %v routed to workers %d and %d", workers, q, w.id, again.id)
				}
				used[w.id] = true
			}
		}
		if len(used) != workers {
			t.Fatalf("%d workers: 240 pairs reached only %d of them", workers, len(used))
		}
	}
}

// meetSession is a Session whose solves meet at a rendezvous: each Solve
// counts itself in and waits until every expected solve is inside at
// once, or until the rendezvous's one shared deadline passes.
type meetSession struct {
	*fakeSession // Validate and ApplyArcDeltas
	m            *rendezvous
}

type rendezvous struct {
	k            int
	deadline     context.Context
	met          chan struct{} // closed once k solves are inside
	mu           sync.Mutex
	inside, peak int
}

func (s meetSession) Solve(ctx context.Context, q flow.Query, warm bool) (*flow.Result, error) {
	m := s.m
	m.mu.Lock()
	m.inside++
	m.peak = max(m.peak, m.inside)
	if m.inside == m.k {
		close(m.met)
	}
	m.mu.Unlock()
	select {
	case <-m.met:
	case <-m.deadline.Done():
	case <-ctx.Done():
	}
	m.mu.Lock()
	m.inside--
	m.mu.Unlock()
	return &flow.Result{Value: int64(q.S*1000 + q.T)}, nil
}

// A batch of k distinct pairs routed to k distinct workers must run its k
// solves at the same time: that fan-out is the pool's whole gain over one
// session. The solves meet at a rendezvous, so the peak number of solves
// in progress at once is k exactly when the workers overlap, and 1 if
// solves were serialized across the pool.
func TestPoolBatchRunsWorkersConcurrently(t *testing.T) {
	const k = 3
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m := &rendezvous{k: k, deadline: deadline, met: make(chan struct{})}
	p, err := New(Config{
		Workers: k,
		New: func(int) (Session, error) {
			return meetSession{newFake(t, 16, 0), m}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// One pair per worker, the first each worker's routing receives.
	pairs := make([]flow.Query, k)
	found := 0
	for s := 0; s < 16 && found < k; s++ {
		for tt := 0; tt < 16 && found < k; tt++ {
			q := flow.Query{S: s, T: tt}
			if w := p.workerFor(q).id; s != tt && pairs[w] == (flow.Query{}) {
				pairs[w] = q
				found++
			}
		}
	}
	if found < k {
		t.Fatalf("the 240 pairs on 16 vertices reached only %d of %d workers", found, k)
	}
	out, err := p.SolveBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res.Value != int64(pairs[i].S*1000+pairs[i].T) {
			t.Fatalf("query %d: wrong value %d", i, res.Value)
		}
	}
	if m.peak != k {
		t.Fatalf("peak %d solves at once over %d pairs on %d workers, want %d", m.peak, k, k, k)
	}
}

// A malformed pair must fail the whole batch up front, before any solve.
func TestPoolBatchValidatesUpFront(t *testing.T) {
	p := fakePool(t, 2, 0)
	_, err := p.SolveBatch(context.Background(), []flow.Query{{S: 0, T: 1}, {S: 3, T: 3}})
	if !errors.Is(err, flow.ErrBadQuery) {
		t.Fatalf("got %v, want ErrBadQuery", err)
	}
	if st := p.Stats(); st.Submitted != 0 {
		t.Fatalf("solves ran despite invalid batch: %+v", st)
	}
}

// Hammer one pool from many goroutines: every result must be correct and
// no two goroutines may enter the same session (checked inside the fake,
// and by -race on the fake's unlocked state).
func TestPoolConcurrentHammer(t *testing.T) {
	p := fakePool(t, 8, 0)
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				s := rnd.Intn(15)
				tt := (s + 1 + rnd.Intn(14)) % 16
				if s == tt {
					tt = (tt + 1) % 16
				}
				res, err := p.Solve(context.Background(), flow.Query{S: s, T: tt}, false)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if res.Value != int64(s*1000+tt) {
					t.Errorf("goroutine %d: query (%d,%d) answered %d", g, s, tt, res.Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Completed != goroutines*25 {
		t.Fatalf("completed %d of %d", st.Completed, goroutines*25)
	}
}

// Concurrent batch callers with disjoint pair sets must each see exactly
// the sequential per-pair order.
func TestPoolConcurrentBatchCallers(t *testing.T) {
	p := fakePool(t, 3, 0)
	var wg sync.WaitGroup
	for caller := 0; caller < 4; caller++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			base := caller * 4
			queries := []flow.Query{
				{S: base, T: base + 1}, {S: base, T: base + 2},
				{S: base, T: base + 1}, {S: base, T: base + 1},
			}
			out, err := p.SolveBatch(context.Background(), queries)
			if err != nil {
				t.Errorf("caller %d: %v", caller, err)
				return
			}
			wantCost := []int64{0, 0, 1, 2}
			for i, res := range out {
				if res.Cost != wantCost[i] {
					t.Errorf("caller %d query %d: repeat %d, want %d", caller, i, res.Cost, wantCost[i])
				}
			}
		}(caller)
	}
	wg.Wait()
}

// Drain with a live context must let queued work finish, then reject new
// queries with ErrClosed.
func TestPoolDrainGraceful(t *testing.T) {
	p := fakePool(t, 2, 20*time.Millisecond)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Solve(context.Background(), flow.Query{S: 0, T: 1 + i%3}, false)
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let the queues fill
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed during graceful drain: %v", i, err)
		}
	}
	if _, err := p.Solve(context.Background(), flow.Query{S: 0, T: 1}, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain solve: got %v, want ErrClosed", err)
	}
	if _, err := p.SolveBatch(context.Background(), []flow.Query{{S: 0, T: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain batch: got %v, want ErrClosed", err)
	}
}

// Drain under an expiring context must abort: running solves are canceled
// mid-solve, queued tasks fail with ErrClosed, and Drain reports ctx.Err().
func TestPoolDrainCancellation(t *testing.T) {
	p := fakePool(t, 1, time.Hour) // one worker, effectively stuck
	const queued = 4
	var wg sync.WaitGroup
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Solve(context.Background(), flow.Query{S: 0, T: 1}, false)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // first task running, rest queued
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: got %v, want DeadlineExceeded", err)
	}
	wg.Wait()
	var canceled, closed int
	for i, err := range errs {
		switch {
		case errors.Is(err, context.Canceled):
			canceled++
		case errors.Is(err, ErrClosed):
			closed++
		default:
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
	}
	if canceled != 1 || closed != queued-1 {
		t.Fatalf("canceled=%d closed=%d, want 1 running canceled and %d queued closed",
			canceled, closed, queued-1)
	}
}

// Drain racing in-flight SolveBatch callers (run under -race in CI's
// dedicated pool step): every batch must either complete fully — all
// results present and correct — or fail atomically with ErrClosed; no
// mixed outcome, no lost task, and Closed() must report shutdown. The
// submit loop inside SolveBatch is deliberately raced against
// beginShutdown here: a batch caught mid-submission has its accepted
// prefix resolved (completed or failed) before Drain returns, so the
// inflight accounting can never leak.
func TestPoolDrainRacesSolveBatch(t *testing.T) {
	p := fakePool(t, 3, time.Millisecond)
	if p.Closed() {
		t.Fatal("fresh pool reports Closed")
	}
	queries := []flow.Query{
		{S: 0, T: 5}, {S: 1, T: 6}, {S: 2, T: 7}, {S: 0, T: 5}, {S: 3, T: 8},
	}
	const callers = 6
	var (
		wg      sync.WaitGroup
		started sync.WaitGroup
		results = make([][]*flow.Result, callers)
		errs    = make([]error, callers)
	)
	started.Add(callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			started.Done()
			for {
				res, err := p.SolveBatch(context.Background(), queries)
				if err != nil {
					results[c], errs[c] = nil, err
					return
				}
				results[c], errs[c] = res, nil
				if p.Closed() {
					return
				}
			}
		}(c)
	}
	started.Wait()
	time.Sleep(3 * time.Millisecond) // batches mid-flight
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !p.Closed() {
		t.Fatal("Closed() false after Drain")
	}
	wg.Wait()
	completed := 0
	for c := 0; c < callers; c++ {
		switch {
		case errs[c] == nil:
			completed++
			for i, r := range results[c] {
				if r == nil {
					t.Fatalf("caller %d: batch reported success with missing result %d", c, i)
				}
				if want := int64(queries[i].S*1000 + queries[i].T); r.Value != want {
					t.Fatalf("caller %d result %d: value %d, want %d", c, i, r.Value, want)
				}
			}
		case errors.Is(errs[c], ErrClosed):
			// Atomic rejection: the whole batch failed, nothing partial.
			if results[c] != nil {
				t.Fatalf("caller %d: results alongside ErrClosed", c)
			}
		default:
			t.Fatalf("caller %d: unexpected error %v", c, errs[c])
		}
	}
	if completed == 0 {
		t.Fatal("every batch was rejected; the race never exercised completion")
	}
	st := p.Stats()
	if st.Completed+st.Failed != st.Submitted {
		t.Fatalf("task accounting leaked: %+v", st)
	}
}

// Close must abort immediately and be idempotent.
func TestPoolClose(t *testing.T) {
	p := fakePool(t, 2, time.Hour)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Solve(context.Background(), flow.Query{S: 0, T: 1}, false)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	p.Close()
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("query %d succeeded through Close", i)
		}
	}
	p.Close() // idempotent
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}

// A caller whose own context dies while its query is queued must return
// promptly instead of waiting behind the rest of the queue.
func TestPoolSolveCallerCancellation(t *testing.T) {
	p := fakePool(t, 1, 50*time.Millisecond)
	go p.Solve(context.Background(), flow.Query{S: 0, T: 1}, false) // occupy the only worker
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Solve(ctx, flow.Query{S: 0, T: 2}, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 40*time.Millisecond {
		t.Fatalf("caller waited %v behind the queue", waited)
	}
}

// The real thing: a pooled batch over flow.Solver worker sessions must be
// bit-identical to the sequential session batch — values, costs, flows,
// warm-start flags and interior-point iterates.
func TestPoolRealFlowBatchBitIdentical(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rnd)
	// Pick terminal pairs the instance can actually route.
	var pairs []flow.Query
	for s := 0; s < d.N() && len(pairs) < 3; s++ {
		for tt := d.N() - 1; tt > s && len(pairs) < 3; tt-- {
			if v, _, _, err := flow.MinCostMaxFlowSSP(d, s, tt); err == nil && v > 0 {
				pairs = append(pairs, flow.Query{S: s, T: tt})
			}
		}
	}
	if len(pairs) < 2 {
		t.Fatalf("instance too sparse: only %d usable pairs", len(pairs))
	}
	queries := []flow.Query{pairs[0], pairs[1], pairs[0], pairs[0], pairs[1]}
	opts := flow.Options{Seed: 77}

	seq, err := flow.NewSolver(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*flow.Result, len(queries))
	for i, q := range queries {
		if want[i], err = seq.Solve(context.Background(), q, true); err != nil {
			t.Fatal(err)
		}
	}

	p, err := New(Config{
		Workers: 4,
		New:     func(int) (Session, error) { return flow.NewSolver(d, opts) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := p.SolveBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		w, g := want[i], got[i]
		if g.Value != w.Value || g.Cost != w.Cost {
			t.Fatalf("query %d: pooled (%d, %d) vs sequential (%d, %d)",
				i, g.Value, g.Cost, w.Value, w.Cost)
		}
		if !reflect.DeepEqual(g.Flows, w.Flows) {
			t.Fatalf("query %d: flows diverged", i)
		}
		if g.WarmStarted != w.WarmStarted {
			t.Fatalf("query %d: WarmStarted %v vs %v", i, g.WarmStarted, w.WarmStarted)
		}
		if g.LPStats.PathSteps != w.LPStats.PathSteps ||
			g.LPStats.CGIterations != w.LPStats.CGIterations ||
			!reflect.DeepEqual(g.LPStats.X, w.LPStats.X) {
			t.Fatalf("query %d: interior-point trajectories diverged", i)
		}
		if err := flow.CertifyOptimal(d, queries[i].S, queries[i].T, g.Flows); err != nil {
			t.Fatalf("query %d: pooled result not certified: %v", i, err)
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
