package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bcclap/internal/flow"
)

// Patch must run the apply function exactly once on every worker session,
// and the wait function must not return before all of them have.
func TestPatchReachesEveryWorker(t *testing.T) {
	const workers = 5
	p := fakePool(t, workers, 0)
	var (
		mu   sync.Mutex
		seen = map[Session]int{}
	)
	wait, err := p.Patch(func(s Session) error {
		mu.Lock()
		seen[s]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != workers {
		t.Fatalf("patch reached %d distinct sessions, want %d", len(seen), workers)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("session %p patched %d times, want 1", s, n)
		}
	}
	if st := p.Stats(); st.Patches != workers {
		t.Fatalf("Stats.Patches = %d, want %d", st.Patches, workers)
	}
}

// Per-worker FIFO: queries submitted before the patch must run against the
// pre-patch session state, queries submitted after wait() against the
// post-patch state. The fake tracks a per-session epoch the patch bumps.
func TestPatchOrdersAgainstQueries(t *testing.T) {
	type epochSession struct {
		*fakeSession
		epoch int
	}
	var (
		mu       sync.Mutex
		sessions []*epochSession
	)
	p, err := New(Config{
		Workers: 3,
		New: func(int) (Session, error) {
			es := &epochSession{fakeSession: newFake(t, 16, 2*time.Millisecond)}
			mu.Lock()
			sessions = append(sessions, es)
			mu.Unlock()
			return es, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	// Saturate the queues so patch tasks genuinely wait behind work.
	var pre sync.WaitGroup
	for i := 0; i < 12; i++ {
		pre.Add(1)
		go func(i int) {
			defer pre.Done()
			if _, err := p.Solve(context.Background(), flow.Query{S: i % 4, T: 5 + i%3}, false); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wait, err := p.Patch(func(s Session) error {
		s.(*epochSession).epoch++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	pre.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, es := range sessions {
		if es.epoch != 1 {
			t.Fatalf("session %d epoch = %d, want 1", i, es.epoch)
		}
	}
}

// A draining or closed pool must reject patches with ErrClosed, and a nil
// apply function must be rejected outright.
func TestPatchRejections(t *testing.T) {
	p := fakePool(t, 2, 0)
	if _, err := p.Patch(nil); err == nil {
		t.Fatal("nil apply accepted")
	}
	p.Close()
	if _, err := p.Patch(func(Session) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("patch on closed pool: err = %v, want ErrClosed", err)
	}
}

// The first per-worker apply error must surface through wait, and patch
// failures must not pollute the query failure counter.
func TestPatchErrorPropagation(t *testing.T) {
	p := fakePool(t, 3, 0)
	boom := fmt.Errorf("boom")
	calls := 0
	var mu sync.Mutex
	wait, err := p.Patch(func(Session) error {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 2 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); !errors.Is(err, boom) {
		t.Fatalf("wait() = %v, want the apply error", err)
	}
	if st := p.Stats(); st.Failed != 0 {
		t.Fatalf("Stats.Failed = %d after a patch error, want 0 (Failed partitions queries)", st.Failed)
	}
	// One solve still works: the sessions stay serviceable after an apply
	// error.
	if _, err := p.Solve(context.Background(), flow.Query{S: 0, T: 5}, false); err != nil {
		t.Fatal(err)
	}
}
