// Package jobs is the unified execution subsystem of the REMI service:
// every mined target set — whether a blocking, batch, async or streaming
// request asked for it — becomes a Job in one Registry, so all of them share
// a single flight-key namespace (identical concurrent queries collapse
// onto one evaluator pass no matter which endpoint submitted them), one
// bounded worker pool with admission control and load-shedding, and one
// lifecycle: submit → queued → running → done/failed/cancelled, with
// TTL-based garbage collection for retained (async) jobs.
//
// Two execution styles cover every caller:
//
//   - Submit enqueues a RunFunc on the registry's worker pool. When the
//     bounded queue is full the submission is rejected with ErrSaturated —
//     the server turns that into 429 + Retry-After.
//   - External registers a job whose work happens elsewhere (a batch
//     phase completes its member entries as each set finishes mining);
//     the owner reports the outcome with Job.Complete.
//
// Interest in a job is reference-counted. Submit/External hand the caller
// one reference (unless Detached); Wait and Release drop it. When the last
// reference on an unretained, unfinished job goes away the job is
// abandoned: a queued job is cancelled outright, a running pool job has
// its context cancelled (and its key retired so new arrivals do not join a
// dying run) — exactly the context-aware singleflight semantics the
// server's old flightGroup provided, now shared by every mining path.
// Bind adds a structural reference: an unfinished batch member pins the
// phase job mining it, so the phase's context is cancelled only when every
// member has been completed, cancelled or abandoned. A member bound to a
// queued phase reports the phase's lifecycle: queued until the phase
// starts, then running (and watched by the watchdog) from that moment.
//
// Pool-executed RunFuncs must never wait on other jobs: with a saturated
// pool, a running job waiting on a queued one deadlocks. Waiting belongs
// to handler and coordinator goroutines, which are not pool workers.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"
)

var (
	// ErrSaturated rejects a submission when the worker queue is full; the
	// server maps it to 429 with a Retry-After hint.
	ErrSaturated = errors.New("jobs: queue saturated")
	// ErrClosed rejects submissions to a closed registry.
	ErrClosed = errors.New("jobs: registry closed")
	// ErrCancelled is the terminal error of an explicitly cancelled job;
	// waiters receive it from Wait. Test with errors.Is.
	ErrCancelled = errors.New("jobs: job cancelled")
	// ErrPanicked wraps a panic recovered from a pool-executed RunFunc.
	ErrPanicked = errors.New("jobs: run panicked")
	// ErrWatchdogKilled is the terminal error of a job the watchdog failed
	// for exceeding its deadline plus grace. Distinct from ErrCancelled so
	// clients can tell "you cancelled it" from "it wedged and we shot it".
	ErrWatchdogKilled = errors.New("jobs: killed by watchdog")
	// ErrDraining rejects new submissions while the registry drains for
	// shutdown; the server maps it to 503.
	ErrDraining = errors.New("jobs: registry draining")
)

// Priority is a submission's admission class. Interactive submissions may
// use the whole queue; batch submissions are rejected early while the
// reserved interactive share is all that remains, so background batches
// cannot starve interactive traffic out of the queue.
type Priority int

const (
	PriorityInteractive Priority = iota
	PriorityBatch
)

// State is a job's lifecycle position.
type State int

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

// String names the state in the wire vocabulary of the jobs API.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Finished reports whether the state is terminal.
func (s State) Finished() bool { return s >= StateDone }

// RunFunc is the work of a pool-executed job. ctx is cancelled when the
// job's last reference goes away or the job is explicitly cancelled; the
// returned value/error become the job's outcome. The func may Emit events
// on j for streaming subscribers.
type RunFunc func(ctx context.Context, j *Job) (any, error)

// Options tunes a Registry.
type Options struct {
	// Workers is the pool size executing submitted jobs (default 4).
	Workers int
	// QueueDepth bounds how many submitted jobs may wait for a worker
	// beyond the ones running; a full queue rejects with ErrSaturated
	// (default 64).
	QueueDepth int
	// TTL is how long a finished job is retained for polling before the
	// garbage collector drops it (default 5m).
	TTL time.Duration
	// EventBuffer caps each job's event log; once full the oldest events
	// are dropped and a replay that spans the gap starts with a synthetic
	// EventTruncated marker (default 1024).
	EventBuffer int
	// WatchdogGrace is slack added to each job's deadline before the
	// watchdog fails it with ErrWatchdogKilled. Jobs without a deadline are
	// never watchdog-killed; grace zero means kill exactly at the deadline.
	WatchdogGrace time.Duration
	// InteractiveReserve is the number of queue slots batch-priority
	// submissions may not use (0 = no reservation). Clamped below
	// QueueDepth so batch work is never locked out entirely.
	InteractiveReserve int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.TTL <= 0 {
		o.TTL = 5 * time.Minute
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 1024
	}
	if o.InteractiveReserve < 0 {
		o.InteractiveReserve = 0
	}
	if o.InteractiveReserve >= o.QueueDepth {
		o.InteractiveReserve = o.QueueDepth - 1
	}
	return o
}

// Stats is a point-in-time snapshot of the registry, rendered by the
// server under /v1/stats.
type Stats struct {
	Workers       int
	QueueCapacity int
	Queued        int // jobs waiting for a worker
	Running       int // pool workers currently executing
	Tracked       int // jobs currently registered (any state)

	Submitted      int64 // pool submissions accepted
	External       int64 // externally-executed jobs registered
	Joined         int64 // callers deduplicated onto an in-flight job
	Rejected       int64 // submissions shed with ErrSaturated
	RejectedBatch  int64 // of Rejected: batch-priority kept out of the interactive reserve
	Completed      int64 // jobs finished in StateDone
	Failed         int64 // jobs finished in StateFailed
	Cancelled      int64 // jobs finished in StateCancelled (explicit or abandoned)
	Expired        int64 // finished jobs dropped by TTL GC
	WatchdogKilled int64 // jobs failed by the watchdog for exceeding deadline+grace

	Draining bool // Drain was called; new submissions are rejected

	AvgRunMS float64 // EWMA of pool job run time
}

// Registry owns the job table, the flight-key namespace and the worker
// pool. All methods are safe for concurrent use.
type Registry struct {
	opts Options

	mu       sync.Mutex
	byID     map[string]*Job
	byKey    map[string]*Job
	closed   bool
	draining bool

	queue chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup

	submitted, external, joined, rejected int64
	rejectedBatch, watchdogKilled         int64
	completed, failed, cancelled, expired int64
	running                               int
	avgRunNS                              float64
}

// New builds a registry and starts its worker pool and GC janitor. Call
// Close to stop them.
func New(opts Options) *Registry {
	opts = opts.withDefaults()
	r := &Registry{
		opts:  opts,
		byID:  make(map[string]*Job),
		byKey: make(map[string]*Job),
		queue: make(chan *Job, opts.QueueDepth),
		stop:  make(chan struct{}),
	}
	r.wg.Add(opts.Workers + 1)
	for i := 0; i < opts.Workers; i++ {
		go r.worker()
	}
	go r.janitor()
	return r
}

// Close stops the pool and the janitor and cancels every unfinished job so
// their waiters unblock. Submissions after Close fail with ErrClosed.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	for _, j := range r.byID {
		if !j.state.Finished() {
			r.finalizeLocked(j, StateCancelled, nil, ErrCancelled)
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// SubmitOpts describes a submission (pool-executed or external).
type SubmitOpts struct {
	// Key is the flight key: a non-empty key joins the caller onto an
	// in-flight job with the same key instead of creating a new one. The
	// empty key is never joinable.
	Key string
	// Kind labels the job for polling clients ("mine", "mine_batch", ...).
	Kind string
	// Meta is opaque caller data echoed by accessors; it must be immutable.
	Meta any
	// Retain keeps the job after it finishes, pollable by id until the TTL
	// expires, and exempts it from last-reference abandonment (retained
	// jobs are cancelled only explicitly or at Close). Joining a retained
	// caller onto an unretained in-flight job upgrades it to retained.
	Retain bool
	// Detached withholds the caller's reference: for fire-and-forget
	// submissions that rely on Retain (async handlers respond with the job
	// id and walk away).
	Detached bool
	// Priority is the admission class (default PriorityInteractive). Batch
	// submissions are shed while only the interactive reserve remains free.
	Priority Priority
	// Deadline bounds the job's run time: once it has been running for
	// Deadline plus the registry's WatchdogGrace, the watchdog cancels its
	// context and fails it with ErrWatchdogKilled. Zero means unbounded.
	Deadline time.Duration
	// Run is the pool-executed work; ignored by External.
	Run RunFunc
}

// Submit enqueues a pool-executed job, or joins an in-flight job sharing
// opts.Key. joined reports the latter. Unless opts.Detached, the caller
// holds a reference it must drop with Wait or Release. A full queue
// returns ErrSaturated without registering anything.
func (r *Registry) Submit(opts SubmitOpts) (j *Job, joined bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false, ErrClosed
	}
	if j := r.joinLocked(opts); j != nil {
		return j, true, nil
	}
	if r.draining {
		// Joining in-flight work above is still fine — it admits nothing new.
		return nil, false, ErrDraining
	}
	if opts.Priority == PriorityBatch && r.opts.InteractiveReserve > 0 &&
		len(r.queue) >= cap(r.queue)-r.opts.InteractiveReserve {
		// Only the reserved interactive share of the queue remains: shed the
		// batch submission early. Safe under r.mu because every enqueue holds
		// it — a concurrent dequeue can only make the queue shorter.
		r.rejected++
		r.rejectedBatch++
		return nil, false, ErrSaturated
	}
	j = r.newJobLocked(opts)
	select {
	case r.queue <- j:
	default:
		r.rejected++
		j.cancel()
		return nil, false, ErrSaturated
	}
	r.submitted++
	r.registerLocked(j, opts)
	return j, false, nil
}

// External registers a job whose work happens outside the pool; the owner
// must eventually call Complete (or Cancel) on it. Like Submit it joins an
// in-flight job sharing opts.Key; opts.Run is ignored. External jobs start
// in StateRunning: they represent work already admitted elsewhere.
func (r *Registry) External(opts SubmitOpts) (j *Job, joined bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		// A closed registry still hands out a job so callers keep a uniform
		// shape; it is born cancelled and every wait returns immediately.
		j = r.newJobLocked(opts)
		j.state = StateCancelled
		j.err = ErrCancelled
		j.finished = time.Now()
		close(j.done)
		j.cancel()
		return j, false
	}
	if j := r.joinLocked(opts); j != nil {
		return j, true
	}
	j = r.newJobLocked(opts)
	j.external = true
	j.state = StateRunning
	j.started = j.created
	r.external++
	r.registerLocked(j, opts)
	return j, false
}

// joinLocked attaches the caller to an in-flight job under opts.Key.
func (r *Registry) joinLocked(opts SubmitOpts) *Job {
	if opts.Key == "" {
		return nil
	}
	j := r.byKey[opts.Key]
	if j == nil {
		return nil
	}
	r.joined++
	if opts.Retain {
		j.retain = true
	}
	if !opts.Detached {
		j.refs++
	}
	return j
}

func (r *Registry) newJobLocked(opts SubmitOpts) *Job {
	j := &Job{
		id:       r.newIDLocked(),
		key:      opts.Key,
		kind:     opts.Kind,
		meta:     opts.Meta,
		retain:   opts.Retain,
		deadline: opts.Deadline,
		run:      opts.Run,
		r:        r,
		created:  time.Now(),
		done:     make(chan struct{}),
		wake:     make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	if !opts.Detached {
		j.refs = 1
	}
	return j
}

func (r *Registry) registerLocked(j *Job, opts SubmitOpts) {
	r.byID[j.id] = j
	if opts.Key != "" {
		r.byKey[opts.Key] = j
	}
}

func (r *Registry) newIDLocked() string {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("jobs: reading random id bytes: %v", err))
		}
		id := "j-" + hex.EncodeToString(b[:])
		if _, taken := r.byID[id]; !taken {
			return id
		}
	}
}

// Get returns the job registered under id.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// Lookup returns the in-flight job holding the flight key, if any (used by
// tests asserting the unified namespace).
func (r *Registry) Lookup(key string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byKey[key]
	return j, ok
}

// Attach adds a reference to j (stream subscribers attach so the run they
// watch is not abandoned under them). Drop it with Release or Wait.
func (r *Registry) Attach(j *Job) {
	r.mu.Lock()
	j.refs++
	r.mu.Unlock()
}

// Release drops a reference without waiting.
func (r *Registry) Release(j *Job) {
	r.mu.Lock()
	r.decRefLocked(j)
	r.mu.Unlock()
}

// Bind makes an unfinished member job pin parent: parent gains a reference
// that is released when the member finishes (whichever way). Batch phases
// are bound this way by their member entries, so a phase keeps mining
// while any member still has an interested caller, and is abandoned when
// the last one goes.
func (r *Registry) Bind(member, parent *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if member.state.Finished() || parent.state.Finished() || member.parent != nil {
		return
	}
	member.parent = parent
	parent.refs++
	if parent.state == StateQueued {
		member.state = StateQueued
		member.started = time.Time{}
		parent.pending = append(parent.pending, member)
	}
}

// Wait blocks until j finishes or ctx ends, then drops the caller's
// reference. Once finished it returns the job's outcome (ErrCancelled for
// a cancelled job); on ctx expiry it returns ctx.Err(), and if the caller
// was j's last reference the job is abandoned (see package comment).
func (r *Registry) Wait(ctx context.Context, j *Job) (any, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		select {
		case <-j.done:
			// Finished and cancelled at the same instant: prefer the result.
		default:
			r.Release(j)
			return nil, ctx.Err()
		}
	}
	r.mu.Lock()
	res, err := j.result, j.err
	r.decRefLocked(j)
	r.mu.Unlock()
	return res, err
}

// Cancel finalizes the job as cancelled: waiters unblock with
// ErrCancelled, a queued job never runs, a running job's context is
// cancelled (its RunFunc should return promptly; whatever it returns is
// discarded). Cancelling a finished job reports its terminal state with
// ok=false and changes nothing.
func (r *Registry) Cancel(j *Job) (prev State, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev = j.state
	if prev.Finished() {
		return prev, false
	}
	r.finalizeLocked(j, StateCancelled, nil, ErrCancelled)
	return prev, true
}

// decRefLocked drops one reference and abandons the job when nobody is
// left interested in an unfinished, unretained run.
func (r *Registry) decRefLocked(j *Job) {
	j.refs--
	if j.refs > 0 {
		return
	}
	switch {
	case j.state.Finished():
		if !j.retain {
			r.dropLocked(j)
		}
	case j.retain:
		// Retained jobs outlive their submitter by design.
	case j.state == StateQueued, j.external:
		// Nothing is executing: cancel outright. A queued job is skipped by
		// the worker that dequeues it; an external member's owner may still
		// Complete it later, which is then a no-op.
		r.finalizeLocked(j, StateCancelled, nil, ErrCancelled)
	default:
		// A running pool job: stop the work and retire the key so new
		// arrivals do not join a dying run, but let the worker record the
		// (partial) outcome it gets back.
		if j.key != "" && r.byKey[j.key] == j {
			delete(r.byKey, j.key)
		}
		j.cancel()
	}
}

// finalizeLocked moves j to a terminal state and wakes everything.
func (r *Registry) finalizeLocked(j *Job, state State, result any, err error) {
	if j.state.Finished() {
		return
	}
	j.state = state
	j.result, j.err = result, err
	j.finished = time.Now()
	j.expires = j.finished.Add(r.opts.TTL)
	switch state {
	case StateDone:
		r.completed++
	case StateFailed:
		r.failed++
	case StateCancelled:
		r.cancelled++
	}
	if j.key != "" && r.byKey[j.key] == j {
		delete(r.byKey, j.key)
	}
	// Members of a phase that never ran share its fate.
	for _, m := range j.pending {
		r.finalizeLocked(m, state, nil, err)
	}
	j.pending = nil
	close(j.done)
	j.notifyLocked()
	j.cancel()
	if p := j.parent; p != nil {
		j.parent = nil
		r.decRefLocked(p)
	}
	if j.refs <= 0 && !j.retain {
		r.dropLocked(j)
	}
}

func (r *Registry) dropLocked(j *Job) {
	delete(r.byID, j.id)
}

// worker executes queued jobs until Close. When the watchdog kills a job,
// it hands this worker's pool slot (and its WaitGroup slot) to a freshly
// spawned replacement; the stuck goroutine then retires silently if its
// RunFunc ever returns, so the Done accounting stays balanced whether or
// not the wedged code recovers.
func (r *Registry) worker() {
	handedOff := false
	defer func() {
		if !handedOff {
			r.wg.Done()
		}
	}()
	for {
		select {
		case <-r.stop:
			return
		case j := <-r.queue:
			if r.runJob(j) {
				handedOff = true
				return
			}
		}
	}
}

// runJob executes one dequeued job; it reports true when the watchdog
// killed the job mid-run, meaning this worker's slot was already handed to
// a replacement and the goroutine must retire without touching counters.
func (r *Registry) runJob(j *Job) (handedOff bool) {
	r.mu.Lock()
	if j.state.Finished() { // cancelled while queued
		r.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	r.running++
	j.notifyLocked()
	for _, m := range j.pending {
		if m.state == StateQueued {
			m.state, m.started = StateRunning, j.started
			m.notifyLocked()
		}
	}
	j.pending = nil
	r.mu.Unlock()

	res, err := runSafely(j)

	r.mu.Lock()
	defer r.mu.Unlock()
	if j.wdKilled {
		// The watchdog already failed this job, decremented running and
		// started a replacement worker; the late result is discarded.
		return true
	}
	r.running--
	dur := time.Since(j.started)
	// EWMA of run time, feeding the Retry-After hint.
	if r.avgRunNS == 0 {
		r.avgRunNS = float64(dur)
	} else {
		r.avgRunNS = 0.8*r.avgRunNS + 0.2*float64(dur)
	}
	j.completeLocked(res, err)
	return false
}

// runSafely converts a RunFunc panic into a job failure: pool workers run
// outside net/http's per-connection recovery, so an unrecovered panic
// would kill the whole server. The stack is logged server-side.
func runSafely(j *Job) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("jobs: %s run panicked: %v\n%s", j.id, p, debug.Stack())
			res, err = nil, fmt.Errorf("%w: %v", ErrPanicked, p)
		}
	}()
	return j.run(j.ctx, j)
}

// janitor drops finished jobs past their TTL and runs the watchdog scan.
func (r *Registry) janitor() {
	defer r.wg.Done()
	interval := r.opts.TTL / 2
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	// The watchdog needs ticks fine enough to notice a blown deadline soon
	// after grace expires, independent of how lazily the TTL sweep may run.
	if g := r.opts.WatchdogGrace; g > 0 {
		wd := g / 2
		if wd < 10*time.Millisecond {
			wd = 10 * time.Millisecond
		}
		if wd > time.Second {
			wd = time.Second
		}
		if wd < interval {
			interval = wd
		}
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-tick.C:
			r.mu.Lock()
			r.sweepLocked(now)
			r.watchdogLocked(now)
			r.mu.Unlock()
		}
	}
}

func (r *Registry) sweepLocked(now time.Time) {
	for id, j := range r.byID {
		if j.state.Finished() && now.After(j.expires) {
			delete(r.byID, id)
			r.expired++
		}
	}
}

// watchdogLocked fails every running job whose deadline plus grace has
// passed. For a pool-executed job the kill also frees the worker slot: the
// job's context is cancelled (finalize does that), running is decremented,
// and a replacement worker goroutine is spawned to take over the slot —
// without a wg.Add, because the stuck goroutine observes wdKilled when its
// RunFunc returns and retires without wg.Done (see worker). A RunFunc that
// ignores its context forever leaks one goroutine but no longer blocks the
// pool or Close.
func (r *Registry) watchdogLocked(now time.Time) {
	for _, j := range r.byID {
		if j.state != StateRunning || j.deadline <= 0 {
			continue
		}
		if now.Before(j.started.Add(j.deadline + r.opts.WatchdogGrace)) {
			continue
		}
		r.watchdogKilled++
		err := fmt.Errorf("%w: ran past %v deadline (+%v grace)",
			ErrWatchdogKilled, j.deadline, r.opts.WatchdogGrace)
		if !j.external {
			j.wdKilled = true
			r.running--
			go r.worker()
		}
		r.finalizeLocked(j, StateFailed, nil, err)
		log.Printf("jobs: watchdog killed %s (%s): %v", j.id, j.kind, err)
	}
}

// Drain stops admitting new submissions (they fail with ErrDraining) while
// queued and running jobs — and joins onto them — proceed normally. Part
// of graceful shutdown: Drain, then DrainWait, then Close.
func (r *Registry) Drain() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (r *Registry) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// DrainWait blocks until every tracked job (queued, running, or external)
// has finished, or ctx ends — whichever comes first.
func (r *Registry) DrainWait(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if r.activeCount() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (r *Registry) activeCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, j := range r.byID {
		if !j.state.Finished() {
			n++
		}
	}
	return n
}

// Snapshot reports the registry's current gauges and counters.
func (r *Registry) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Workers:        r.opts.Workers,
		QueueCapacity:  r.opts.QueueDepth,
		Queued:         len(r.queue),
		Running:        r.running,
		Tracked:        len(r.byID),
		Submitted:      r.submitted,
		External:       r.external,
		Joined:         r.joined,
		Rejected:       r.rejected,
		RejectedBatch:  r.rejectedBatch,
		Completed:      r.completed,
		Failed:         r.failed,
		Cancelled:      r.cancelled,
		Expired:        r.expired,
		WatchdogKilled: r.watchdogKilled,
		Draining:       r.draining,
		AvgRunMS:       r.avgRunNS / float64(time.Millisecond),
	}
}

// RetryAfter estimates how long a shed client should back off: the EWMA
// run time times the queue that would be ahead of it, clamped to [1s, 60s].
func (r *Registry) RetryAfter() time.Duration {
	r.mu.Lock()
	avg := time.Duration(r.avgRunNS)
	queued := len(r.queue)
	workers := r.opts.Workers
	r.mu.Unlock()
	if avg <= 0 {
		avg = time.Second
	}
	d := avg * time.Duration(queued+1) / time.Duration(workers)
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}
