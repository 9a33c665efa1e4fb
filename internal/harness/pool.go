package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ErrJobPanicked is matched (errors.Is) by the error of a job that
// panicked; the error itself is a *PanicError carrying the panic value.
var ErrJobPanicked = errors.New("harness: job panicked")

// PanicError is a recovered panic turned into an error: Value is what was
// passed to panic and Stack the panicking goroutine's stack trace.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("%v: %v", ErrJobPanicked, e.Value) }

// Unwrap makes a PanicError match ErrJobPanicked.
func (e *PanicError) Unwrap() error { return ErrJobPanicked }

// Safely runs fn and returns its error, or a *PanicError if fn panics. Pool
// workers run every job through it, so an engine invariant panic fails one
// job instead of killing the process.
func Safely(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Job is one unit of work submitted to a Pool. The scratch argument is the
// executing worker's private reusable workspace (see NewPool's newScratch);
// it is reused across the jobs one worker runs and must not be retained.
type Job func(ctx context.Context, scratch any) error

// JobHandle tracks one job accepted by Pool.TrySubmit/TrySubmitAll.
type JobHandle struct {
	ctx    context.Context
	cancel context.CancelFunc
	fn     Job
	done   chan struct{}
	err    error
}

// Done returns a channel closed when the job has finished (or was skipped
// after cancellation).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Err returns the job's error; it is meaningful only after Done is closed.
// A job cancelled before it started reports its context error, and a job
// that panicked a *PanicError (matching ErrJobPanicked).
func (h *JobHandle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Cancel cancels the job's context. A queued job is skipped when a worker
// reaches it; a running job sees its ctx cancelled and is expected to
// return promptly, as every simulator entry point does.
func (h *JobHandle) Cancel() { h.cancel() }

// Pool is the long-lived counterpart of ForEachWorkers: a bounded worker
// pool with a bounded FIFO queue for jobs that arrive over time — the
// execution substrate of the pluralityd serving layer. Admission control is
// explicit: TrySubmit/TrySubmitAll never block and fail when the queue is
// full, so callers can shed load (HTTP 429) instead of queueing unboundedly.
// Like the batch helpers, the pool imposes no ordering of its own beyond
// FIFO dispatch; determinism stays with the jobs, which write
// index-addressed slots.
type Pool struct {
	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*JobHandle
	queueCap   int
	newScratch func() any
	closed     bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    int
	running    int
	wg         sync.WaitGroup
}

// NewPool starts a pool of `workers` goroutines (<= 0 means GOMAXPROCS)
// accepting at most queueCap queued jobs (<= 0 means 1024). newScratch,
// when non-nil, builds one reusable workspace per worker, passed to every
// job the worker runs.
func NewPool(workers, queueCap int, newScratch func() any) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueCap <= 0 {
		queueCap = 1024
	}
	p := &Pool{queueCap: queueCap, newScratch: newScratch, workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.baseCtx, p.baseCancel = context.WithCancel(context.Background())
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	var scratch any
	if p.newScratch != nil {
		scratch = p.newScratch()
	}
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		h := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		if len(p.queue) == 0 {
			p.queue = nil // release the drained backing array
		}
		p.running++
		p.mu.Unlock()

		if err := h.ctx.Err(); err != nil {
			h.err = err // cancelled while queued: skip the work
		} else {
			h.err = Safely(func() error { return h.fn(h.ctx, scratch) })
		}
		h.cancel() // release the context's resources
		close(h.done)

		p.mu.Lock()
		p.running--
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// TrySubmit enqueues one job without blocking. It returns (nil, false) when
// the queue is full or the pool is draining/closed.
func (p *Pool) TrySubmit(fn Job) (*JobHandle, bool) {
	hs, ok := p.TrySubmitAll([]Job{fn})
	if !ok {
		return nil, false
	}
	return hs[0], true
}

// TrySubmitAll enqueues all the given jobs or none of them: if admitting
// the whole batch would exceed the queue capacity — or the pool is
// draining/closed — nothing is enqueued and ok is false. All-or-nothing
// admission is what lets a multi-job request (a sweep) be refused atomically
// instead of wedging half-admitted.
func (p *Pool) TrySubmitAll(fns []Job) (handles []*JobHandle, ok bool) {
	if len(fns) == 0 {
		return nil, true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.queue)+len(fns) > p.queueCap {
		return nil, false
	}
	handles = make([]*JobHandle, len(fns))
	for i, fn := range fns {
		ctx, cancel := context.WithCancel(p.baseCtx)
		handles[i] = &JobHandle{ctx: ctx, cancel: cancel, fn: fn, done: make(chan struct{})}
	}
	p.queue = append(p.queue, handles...)
	p.cond.Broadcast()
	return handles, true
}

// Pending returns the number of queued (not yet started) and currently
// running jobs — the load signal behind Retry-After hints.
func (p *Pool) Pending() (queued, running int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue), p.running
}

// Drain stops admission and waits until every queued and running job has
// finished. If ctx expires first, the outstanding jobs' contexts are
// cancelled and Drain still waits for the workers to observe that (jobs
// honour cancellation promptly), then returns ctx's error.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels every queued and running job and waits for the workers to
// exit — the abrupt counterpart of Drain.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.baseCancel()
	p.wg.Wait()
}
