package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bcclap/internal/flow"
	"bcclap/internal/graph"
)

// ErrClosed marks a query submitted after Close or Drain has begun, or a
// queued query abandoned by an aborting shutdown.
var ErrClosed = errors.New("pool: closed")

// Session is the solver handle each worker goroutine owns exclusively.
// *flow.Solver implements it; tests substitute instrumented fakes.
type Session interface {
	// Validate reports whether q is well-formed without doing solve work.
	// It must be safe for concurrent use (read-only); the pool confines
	// the other methods to the owning worker goroutine.
	Validate(q flow.Query) error
	// Solve answers one query; with warm set, a repeated terminal pair
	// warm-starts from the previous certified solve.
	Solve(ctx context.Context, q flow.Query, warm bool) (*flow.Result, error)
	// ApplyArcDeltas folds an arc capacity/cost patch into the session
	// (Patch broadcasts it to every worker).
	ApplyArcDeltas(deltas []graph.ArcDelta) error
}

var _ Session = (*flow.Solver)(nil)

// Config sizes a Pool.
type Config struct {
	// Workers is the number of worker sessions (default and floor 1). A
	// query's (s, t) pair hashes onto one worker, and every solve for that
	// pair happens there, so per-pair solve order — and with it warm-start
	// reuse and bit-for-bit reproducibility — is preserved under fan-out.
	Workers int
	// New constructs the session owned by worker i. It is called once per
	// worker during pool construction; each session must be independent
	// (its own backend workspaces and scratch).
	New func(i int) (Session, error)
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	// Workers is the worker-session count.
	Workers int
	// Submitted counts queries accepted by Solve/SolveBatch; Completed and
	// Failed partition the finished ones; WarmStarted counts completions
	// that skipped path following.
	Submitted, Completed, Failed, WarmStarted int64
	// Patches counts per-worker patch applications (one Patch call
	// increments it once per worker that ran the apply function).
	Patches int64
	// InFlight is the number of accepted but unfinished tasks (queued or
	// running, patch broadcasts included) at snapshot time — the pool
	// occupancy a scrape reports.
	InFlight int
}

// task is one query in flight: submitted to exactly one worker queue,
// resolved exactly once (res/err are written before done is closed and
// only read after). A task with apply set is a session mutation instead of
// a query — it runs the function against the worker's session and carries
// no query fields.
type task struct {
	ctx   context.Context
	q     flow.Query
	warm  bool
	apply func(Session) error
	res   *flow.Result
	err   error
	done  chan struct{}
}

// worker is one pool goroutine and the session it exclusively owns. Tasks
// are queued FIFO; because a terminal pair always hashes to the same
// worker, per-pair execution order equals submission order.
type worker struct {
	id    int
	sess  Session
	p     *Pool
	mu    sync.Mutex
	queue []*task
	wake  chan struct{} // cap 1: queue became non-empty
}

// Pool is a thread-safe pool of solver sessions. Queries are routed by
// terminal pair: hash(s, t) picks the worker — so every query for one pair runs on one session, in submission
// order, which keeps the allocation-free per-session hot paths race-free
// and the warm-start caches coherent without any locking on the solve
// path. Solve and SolveBatch may be called from any number of goroutines.
//
// Shutdown is two-speed: Drain stops intake and lets queued work finish
// (with a context bounding the wait), Close aborts queued and running work
// immediately.
type Pool struct {
	workers []*worker

	// mu guards closed and brackets every queue append, so that a task
	// accepted before shutdown is always visible to its worker's final
	// queue scan (submission and beginShutdown serialize on mu).
	mu     sync.Mutex
	closed bool
	drain  chan struct{} // closed once no new work is accepted
	// kill is canceled, by Close or by a Drain whose context expired, to
	// abort queued and running work; every running solve's context
	// derives its cancellation from it.
	kill      context.Context
	abort     context.CancelFunc
	wg        sync.WaitGroup // worker goroutines
	inflight  sync.WaitGroup // accepted but unfinished tasks
	inflightN atomic.Int64   // readable mirror of inflight for Stats

	submitted, completed, failed, warmHits, patches atomic.Int64
}

// New builds the pool and starts its max(Workers, 1) workers. Every
// session is constructed eagerly so configuration errors (bad backend,
// empty digraph) surface here, before any query is accepted.
func New(cfg Config) (*Pool, error) {
	if cfg.New == nil {
		return nil, errors.New("pool: Config.New is required")
	}
	p := &Pool{drain: make(chan struct{})}
	p.kill, p.abort = context.WithCancel(context.Background())
	for i := 0; i < max(cfg.Workers, 1); i++ {
		sess, err := cfg.New(i)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("pool: worker %d session: %w", i, err)
		}
		p.workers = append(p.workers, &worker{id: i, sess: sess, p: p, wake: make(chan struct{}, 1)})
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go w.loop()
	}
	return p, nil
}

// Workers returns the total worker-session count.
func (p *Pool) Workers() int { return len(p.workers) }

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:     len(p.workers),
		Submitted:   p.submitted.Load(),
		Completed:   p.completed.Load(),
		Failed:      p.failed.Load(),
		WarmStarted: p.warmHits.Load(),
		Patches:     p.patches.Load(),
		InFlight:    int(p.inflightN.Load()),
	}
}

// Validate checks one query without solving (read-only, concurrency-safe).
func (p *Pool) Validate(q flow.Query) error { return p.workers[0].sess.Validate(q) }

// workerFor routes a terminal pair: a splitmix64 finalizer over (s, t),
// reduced modulo the worker count. Deterministic across processes (no
// per-run hash seeding), so a replayed query stream routes identically.
func (p *Pool) workerFor(q flow.Query) *worker {
	x := uint64(uint32(q.S))<<32 | uint64(uint32(q.T))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return p.workers[x%uint64(len(p.workers))]
}

// submit enqueues t on its pair's worker, or rejects it if shutdown began.
func (p *Pool) submit(t *task) error {
	w := p.workerFor(t.q)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.inflight.Add(1)
	p.inflightN.Add(1)
	p.submitted.Add(1)
	w.mu.Lock()
	w.queue = append(w.queue, t)
	w.mu.Unlock()
	p.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return nil
}

// Solve answers one query, warm or cold (see flow.Solver.Solve), on the
// pair's pinned worker session. If ctx expires while the query is still
// queued or running, Solve returns ctx.Err() immediately; the worker fails
// the abandoned task promptly when it reaches it.
func (p *Pool) Solve(ctx context.Context, q flow.Query, warm bool) (*flow.Result, error) {
	tk := &task{ctx: ctx, q: q, warm: warm, done: make(chan struct{})}
	if err := p.submit(tk); err != nil {
		return nil, err
	}
	select {
	case <-tk.done:
		return tk.res, tk.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// SolveBatch fans warm queries out across the pool with bounded
// concurrency — at most Workers() solves run at once. Every terminal pair
// is validated before any work starts, so a malformed pair fails the whole
// batch. Because submission order is batch order and a pair always lands
// on the same worker queue, per-pair solve order equals that of warm
// Solve calls made in batch order on one session — which is what keeps
// warm starts, and their bit-identical results, intact under fan-out. The
// first failing query cancels the rest of the batch and is returned.
func (p *Pool) SolveBatch(ctx context.Context, queries []flow.Query) ([]*flow.Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	for i, q := range queries {
		if err := p.Validate(q); err != nil {
			return nil, fmt.Errorf("pool: batch query %d: %w", i, err)
		}
	}
	bctx, cancelBatch := context.WithCancel(ctx)
	defer cancelBatch()
	var (
		once     sync.Once
		firstErr error
	)
	fail := func(i int, q flow.Query, err error) {
		once.Do(func() {
			firstErr = fmt.Errorf("pool: batch query %d (s=%d, t=%d): %w", i, q.S, q.T, err)
			cancelBatch()
		})
	}
	tasks := make([]*task, len(queries))
	for i, q := range queries {
		t := &task{ctx: bctx, q: q, warm: true, done: make(chan struct{})}
		if err := p.submit(t); err != nil {
			fail(i, q, err)
			break
		}
		tasks[i] = t
	}
	var wg sync.WaitGroup
	for i, t := range tasks {
		if t == nil {
			continue
		}
		wg.Add(1)
		go func(i int, t *task) {
			defer wg.Done()
			<-t.done
			if t.err != nil {
				fail(i, t.q, t.err)
			}
		}(i, t)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]*flow.Result, len(tasks))
	for i, t := range tasks {
		out[i] = t.res
	}
	return out, nil
}

// Patch broadcasts a session mutation to every worker: apply is enqueued
// behind each worker's already-queued work (FIFO, like queries), so every
// query accepted before Patch runs against the pre-patch sessions and
// every query accepted after the returned wait function completes runs
// against the patched ones. Patch itself only enqueues — it returns a wait
// function that blocks until every worker has run apply and reports the
// first failure. The enqueue is atomic with respect to submission: callers
// holding their own serving lock across Patch get a clean linearization
// point (no query can slip between the per-worker enqueues).
//
// apply runs on each worker goroutine with exclusive access to that
// worker's session, exactly like a solve; it must leave the session
// serviceable even on error. A pool that is draining or closed rejects the
// patch with ErrClosed, and a kill while patch tasks sit queued fails the
// wait with ErrClosed.
func (p *Pool) Patch(apply func(Session) error) (wait func() error, err error) {
	if apply == nil {
		return nil, errors.New("pool: nil patch function")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	tasks := make([]*task, len(p.workers))
	for i, w := range p.workers {
		t := &task{ctx: context.Background(), apply: apply, done: make(chan struct{})}
		p.inflight.Add(1)
		p.inflightN.Add(1)
		w.mu.Lock()
		w.queue = append(w.queue, t)
		w.mu.Unlock()
		tasks[i] = t
	}
	p.mu.Unlock()
	for _, w := range p.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	return func() error {
		var first error
		for _, t := range tasks {
			<-t.done
			if t.err != nil && first == nil {
				first = t.err
			}
		}
		return first
	}, nil
}

// beginShutdown stops intake. Serializing on mu with submit guarantees
// every accepted task is already on its worker queue when drain closes.
func (p *Pool) beginShutdown() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.drain)
	}
	p.mu.Unlock()
}

// Closed reports whether shutdown (Drain or Close) has begun: once true,
// no new query will ever be accepted. The service layer's swap/drain path
// uses it to distinguish a retiring solver from a serving one.
func (p *Pool) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Drain gracefully shuts the pool down: intake stops immediately, queued
// and running queries are allowed to finish, and Drain returns nil once
// every worker has exited. If ctx expires first, the remaining work is
// aborted — running solves are canceled mid-iteration, queued tasks fail
// with ErrClosed — and Drain returns ctx.Err() after the workers exit.
func (p *Pool) Drain(ctx context.Context) error {
	p.beginShutdown()
	done := make(chan struct{})
	go func() {
		p.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		p.wg.Wait()
		return nil
	case <-ctx.Done():
		p.abort()
		<-done
		p.wg.Wait()
		return ctx.Err()
	}
}

// Close aborts the pool: intake stops, queued tasks fail with ErrClosed,
// running solves are canceled within one solver iteration, and Close
// returns once every worker goroutine has exited. Safe to call after
// Drain, and more than once.
func (p *Pool) Close() {
	p.beginShutdown()
	p.abort()
	p.wg.Wait()
}

// loop is the worker body: pop, solve, repeat until shutdown.
func (w *worker) loop() {
	defer w.p.wg.Done()
	for {
		t, stop := w.next()
		if stop {
			return
		}
		if t != nil {
			w.run(t)
		}
	}
}

// next blocks until a task is available or the pool shuts down. On drain
// it keeps working until its queue is empty; on kill it fails everything
// still queued and exits.
func (w *worker) next() (t *task, stop bool) {
	for {
		w.mu.Lock()
		if len(w.queue) > 0 {
			t = w.queue[0]
			w.queue = w.queue[1:]
			w.mu.Unlock()
			select {
			case <-w.p.kill.Done():
				// Abort began while this task sat queued: fail it
				// instead of running it.
				w.fail(t, ErrClosed)
				continue
			default:
			}
			return t, false
		}
		w.mu.Unlock()
		select {
		case <-w.wake:
		case <-w.p.kill.Done():
			w.failQueued()
			return nil, true
		case <-w.p.drain:
			// Intake is closed and submissions serialize with it on
			// p.mu, so an empty queue here is final.
			w.mu.Lock()
			empty := len(w.queue) == 0
			w.mu.Unlock()
			if empty {
				return nil, true
			}
		}
	}
}

// fail resolves a task without running it (abort path). Patch tasks do not
// count toward the query failure counter — Failed partitions queries.
func (w *worker) fail(t *task, err error) {
	t.err = err
	if t.apply == nil {
		w.p.failed.Add(1)
	}
	close(t.done)
	w.p.inflightN.Add(-1)
	w.p.inflight.Done()
}

// failQueued resolves every still-queued task with ErrClosed (abort path).
func (w *worker) failQueued() {
	w.mu.Lock()
	q := w.queue
	w.queue = nil
	w.mu.Unlock()
	for _, t := range q {
		w.fail(t, ErrClosed)
	}
}

// run executes one task on the worker's private session. The solve context
// is the task's, additionally canceled if the pool is killed mid-solve, so
// an aborting shutdown interrupts within one solver iteration. The kill is
// wired in with context.AfterFunc, which starts a goroutine only if the
// kill fires.
func (w *worker) run(t *task) {
	p := w.p
	if t.apply != nil {
		t.err = t.apply(w.sess)
		p.patches.Add(1)
		close(t.done)
		p.inflightN.Add(-1)
		p.inflight.Done()
		return
	}
	finish := func() {
		if t.err != nil {
			p.failed.Add(1)
		} else {
			p.completed.Add(1)
			if t.res.WarmStarted {
				p.warmHits.Add(1)
			}
		}
		close(t.done)
		p.inflightN.Add(-1)
		p.inflight.Done()
	}
	if err := t.ctx.Err(); err != nil {
		t.err = err
		finish()
		return
	}
	ctx, cancel := context.WithCancel(t.ctx)
	stop := context.AfterFunc(p.kill, cancel)
	t.res, t.err = w.sess.Solve(ctx, t.q, t.warm)
	stop()
	cancel()
	finish()
}
