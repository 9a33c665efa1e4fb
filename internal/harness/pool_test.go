package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4, 100, nil)
	defer p.Close()
	var n atomic.Int64
	var handles []*JobHandle
	for i := 0; i < 50; i++ {
		h, ok := p.TrySubmit(func(ctx context.Context, _ any) error {
			n.Add(1)
			return nil
		})
		if !ok {
			t.Fatalf("submit %d refused", i)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		<-h.Done()
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if n.Load() != 50 {
		t.Fatalf("ran %d jobs, want 50", n.Load())
	}
}

func TestPoolScratchPerWorker(t *testing.T) {
	type ws struct{ uses int }
	var mu sync.Mutex
	made := 0
	p := NewPool(3, 100, func() any {
		mu.Lock()
		made++
		mu.Unlock()
		return &ws{}
	})
	defer p.Close()
	// Three jobs that must run concurrently force every worker to start;
	// the barrier releases once all three are in flight.
	var arrived sync.WaitGroup
	arrived.Add(3)
	release := make(chan struct{})
	var handles []*JobHandle
	for i := 0; i < 3; i++ {
		h, _ := p.TrySubmit(func(ctx context.Context, s any) error {
			s.(*ws).uses++ // worker-private: no lock needed
			arrived.Done()
			<-release
			return nil
		})
		handles = append(handles, h)
	}
	arrived.Wait()
	close(release)
	for _, h := range handles {
		<-h.Done()
	}
	mu.Lock()
	defer mu.Unlock()
	if made != 3 {
		t.Fatalf("built %d scratches, want one per worker (3)", made)
	}
}

func TestPoolAdmissionControl(t *testing.T) {
	p := NewPool(1, 2, nil)
	defer p.Close()
	block := make(chan struct{})
	// Occupy the single worker, then fill the queue.
	running, ok := p.TrySubmit(func(ctx context.Context, _ any) error {
		<-block
		return nil
	})
	if !ok {
		t.Fatal("first submit refused")
	}
	waitRunning(t, p)
	for i := 0; i < 2; i++ {
		if _, ok := p.TrySubmit(func(ctx context.Context, _ any) error { return nil }); !ok {
			t.Fatalf("queue submit %d refused below capacity", i)
		}
	}
	if _, ok := p.TrySubmit(func(ctx context.Context, _ any) error { return nil }); ok {
		t.Fatal("submit accepted beyond queue capacity")
	}
	// All-or-nothing: a 2-job batch must not squeeze into 0 free slots,
	// and must fit after the queue drains.
	if _, ok := p.TrySubmitAll(make([]Job, 2)); ok {
		t.Fatal("batch accepted beyond queue capacity")
	}
	close(block)
	<-running.Done()
	q, _ := p.Pending()
	_ = q
	deadline := time.After(5 * time.Second)
	for {
		if q, r := p.Pending(); q == 0 && r == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queue never drained")
		case <-time.After(time.Millisecond):
		}
	}
	hs, ok := p.TrySubmitAll([]Job{
		func(ctx context.Context, _ any) error { return nil },
		func(ctx context.Context, _ any) error { return nil },
	})
	if !ok {
		t.Fatal("batch refused with free capacity")
	}
	for _, h := range hs {
		<-h.Done()
	}
}

func TestPoolCancelQueuedJob(t *testing.T) {
	p := NewPool(1, 10, nil)
	defer p.Close()
	block := make(chan struct{})
	first, _ := p.TrySubmit(func(ctx context.Context, _ any) error {
		<-block
		return nil
	})
	waitRunning(t, p)
	ran := false
	queued, _ := p.TrySubmit(func(ctx context.Context, _ any) error {
		ran = true
		return nil
	})
	queued.Cancel()
	close(block)
	<-first.Done()
	<-queued.Done()
	if ran {
		t.Fatal("cancelled queued job still ran")
	}
	if !errors.Is(queued.Err(), context.Canceled) {
		t.Fatalf("cancelled job error = %v, want context.Canceled", queued.Err())
	}
}

func TestPoolDrainWaitsForJobs(t *testing.T) {
	p := NewPool(2, 10, nil)
	var done atomic.Int64
	for i := 0; i < 6; i++ {
		p.TrySubmit(func(ctx context.Context, _ any) error {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
			return nil
		})
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 6 {
		t.Fatalf("drain returned with %d/6 jobs finished", done.Load())
	}
	if _, ok := p.TrySubmit(func(ctx context.Context, _ any) error { return nil }); ok {
		t.Fatal("submit accepted after Drain")
	}
}

func TestPoolDrainDeadlineCancelsJobs(t *testing.T) {
	p := NewPool(1, 10, nil)
	started := make(chan struct{})
	h, _ := p.TrySubmit(func(ctx context.Context, _ any) error {
		close(started)
		<-ctx.Done() // a job that only ends under cancellation
		return ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain error = %v, want deadline exceeded", err)
	}
	<-h.Done()
	if !errors.Is(h.Err(), context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", h.Err())
	}
}

// waitRunning blocks until the pool reports a running job, so tests can
// distinguish "worker busy" from "job still queued".
func waitRunning(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if _, r := p.Pending(); r > 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatal("no job ever started")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestPoolRecoversPanickingJob pins that a panicking job fails with a typed
// error carrying the panic value, and that its worker keeps serving: with
// one worker, the job queued behind the panic must still run.
func TestPoolRecoversPanickingJob(t *testing.T) {
	p := NewPool(1, 10, nil)
	defer p.Close()
	bad, ok := p.TrySubmit(func(ctx context.Context, _ any) error {
		panic("tally underflow")
	})
	if !ok {
		t.Fatal("panicking job refused")
	}
	ran := false
	good, ok := p.TrySubmit(func(ctx context.Context, _ any) error {
		ran = true
		return nil
	})
	if !ok {
		t.Fatal("follow-up job refused")
	}
	<-bad.Done()
	err := bad.Err()
	if !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("panicking job: err = %v, want ErrJobPanicked", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "tally underflow" || len(pe.Stack) == 0 {
		t.Fatalf("panicking job: err = %#v, want a *PanicError with the panic value and a stack", err)
	}
	<-good.Done()
	if err := good.Err(); err != nil || !ran {
		t.Fatalf("job after the panic: ran=%v err=%v", ran, err)
	}
}
