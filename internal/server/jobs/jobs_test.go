package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testRegistry(t *testing.T, opts Options) *Registry {
	t.Helper()
	r := New(opts)
	t.Cleanup(r.Close)
	return r
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunsAndCompletes(t *testing.T) {
	r := testRegistry(t, Options{Workers: 2})
	j, joined, err := r.Submit(SubmitOpts{
		Key:  "k1",
		Kind: "mine",
		Run:  func(ctx context.Context, j *Job) (any, error) { return 42, nil },
	})
	if err != nil || joined {
		t.Fatalf("Submit: joined=%v err=%v", joined, err)
	}
	v, err := r.Wait(context.Background(), j)
	if err != nil || v != 42 {
		t.Fatalf("Wait = (%v, %v), want (42, nil)", v, err)
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %v, want done", st)
	}
	if _, _, finished := j.Times(); finished.IsZero() {
		t.Fatal("finished timestamp not set")
	}
}

func TestSubmitFailure(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	boom := errors.New("boom")
	j, _, err := r.Submit(SubmitOpts{Run: func(ctx context.Context, j *Job) (any, error) { return nil, boom }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(context.Background(), j); !errors.Is(err, boom) {
		t.Fatalf("Wait err = %v, want boom", err)
	}
	if st := j.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
}

func TestSubmitPanicBecomesFailure(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	j, _, err := r.Submit(SubmitOpts{Run: func(ctx context.Context, j *Job) (any, error) { panic("kaboom") }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(context.Background(), j); !errors.Is(err, ErrPanicked) {
		t.Fatalf("Wait err = %v, want ErrPanicked", err)
	}
}

// TestFlightKeyJoins: concurrent submissions under one key share a single
// execution — the unified dedup namespace contract.
func TestFlightKeyJoins(t *testing.T) {
	r := testRegistry(t, Options{Workers: 4})
	release := make(chan struct{})
	var runs int32
	var mu sync.Mutex
	run := func(ctx context.Context, j *Job) (any, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		<-release
		return "shared", nil
	}
	first, joined, err := r.Submit(SubmitOpts{Key: "q", Run: run})
	if err != nil || joined {
		t.Fatalf("first submit: joined=%v err=%v", joined, err)
	}
	waitFor(t, "first run to start", func() bool { return first.State() == StateRunning })

	const followers = 5
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		second, joined, err := r.Submit(SubmitOpts{Key: "q", Run: run})
		if err != nil || !joined || second != first {
			t.Fatalf("follower %d: joined=%v err=%v same=%v", i, joined, err, second == first)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := r.Wait(context.Background(), second); err != nil || v != "shared" {
				t.Errorf("follower Wait = (%v, %v)", v, err)
			}
		}()
	}
	close(release)
	if v, err := r.Wait(context.Background(), first); err != nil || v != "shared" {
		t.Fatalf("owner Wait = (%v, %v)", v, err)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("%d executions for one key, want 1", runs)
	}
	if s := r.Snapshot(); s.Joined != followers {
		t.Fatalf("Joined = %d, want %d", s.Joined, followers)
	}
}

// TestSaturationRejects: once workers and queue are full, Submit sheds
// load with ErrSaturated and counts the rejection; RetryAfter gives a
// positive hint.
func TestSaturationRejects(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, j *Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	running, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true, Run: block})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool { return running.State() == StateRunning })
	if _, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true, Run: block}); err != nil {
		t.Fatalf("queued submission rejected: %v", err)
	}
	if _, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true, Run: block}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	s := r.Snapshot()
	if s.Rejected != 1 || s.Queued != 1 || s.Running != 1 {
		t.Fatalf("snapshot = %+v, want 1 rejected / 1 queued / 1 running", s)
	}
	if r.RetryAfter() <= 0 {
		t.Fatal("RetryAfter not positive")
	}
}

// TestLastWaiterAbandonsRun preserves the old flightGroup contract: the
// shared run is cancelled only when every attached caller has gone away,
// and its key is retired so new arrivals start fresh.
func TestLastWaiterAbandonsRun(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	started := make(chan struct{})
	stopped := make(chan struct{})
	j, _, err := r.Submit(SubmitOpts{Key: "q", Run: func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		close(stopped)
		return "partial", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx2, cancel2 := context.WithCancel(context.Background())
	second, joined, err := r.Submit(SubmitOpts{Key: "q", Run: nil})
	if err != nil || !joined {
		t.Fatalf("join failed: joined=%v err=%v", joined, err)
	}

	// First waiter leaves: the run must keep going for the second.
	ctx1, cancel1 := context.WithCancel(context.Background())
	cancel1()
	if _, err := r.Wait(ctx1, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Wait err = %v", err)
	}
	select {
	case <-stopped:
		t.Fatal("run cancelled while a waiter remained")
	case <-time.After(20 * time.Millisecond):
	}

	// Last waiter leaves: the run is abandoned and the key retired.
	cancel2()
	if _, err := r.Wait(ctx2, second); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Wait err = %v", err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned run not cancelled")
	}
	if _, held := r.Lookup("q"); held {
		t.Fatal("key still held by the abandoned run")
	}
	// The worker records the partial outcome without crashing.
	waitFor(t, "worker to record the outcome", func() bool { return r.Snapshot().Running == 0 })
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer close(release)
	blocker, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true,
		Run: func(ctx context.Context, j *Job) (any, error) { <-release; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return blocker.State() == StateRunning })

	ran := false
	queued, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true,
		Run: func(ctx context.Context, j *Job) (any, error) { ran = true; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if prev, ok := r.Cancel(queued); !ok || prev != StateQueued {
		t.Fatalf("Cancel = (%v, %v), want (queued, true)", prev, ok)
	}
	if prev, ok := r.Cancel(queued); ok || prev != StateCancelled {
		t.Fatalf("double Cancel = (%v, %v), want (cancelled, false)", prev, ok)
	}
	if _, err, ok := queued.Result(); !ok || !errors.Is(err, ErrCancelled) {
		t.Fatalf("Result = (%v, %v), want ErrCancelled", err, ok)
	}
	if ran {
		t.Fatal("cancelled queued job ran")
	}
}

func TestCancelRunningJobStopsIt(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	j, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) { <-ctx.Done(); return "late", nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return j.State() == StateRunning })
	if prev, ok := r.Cancel(j); !ok || prev != StateRunning {
		t.Fatalf("Cancel = (%v, %v)", prev, ok)
	}
	// The late Complete from the worker must not resurrect the job.
	waitFor(t, "worker to drain", func() bool { return r.Snapshot().Running == 0 })
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state = %v after late completion, want cancelled", st)
	}
	if v, err, _ := j.Result(); v != nil || !errors.Is(err, ErrCancelled) {
		t.Fatalf("Result = (%v, %v), want (nil, ErrCancelled)", v, err)
	}
}

// TestExternalMemberAndBind models a batch: member entries are external
// jobs completed by a pool-executed phase; the phase is pinned by its
// members and abandoned when the last interested caller goes away.
func TestExternalMemberAndBind(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	m1, joined := r.External(SubmitOpts{Key: "set1", Kind: "mine"})
	if joined {
		t.Fatal("fresh member reported joined")
	}
	m2, _ := r.External(SubmitOpts{Key: "set2", Kind: "mine"})

	phaseGo := make(chan struct{})
	phase, _, err := r.Submit(SubmitOpts{Detached: true, Kind: "batch_phase",
		Run: func(ctx context.Context, j *Job) (any, error) {
			<-phaseGo
			m1.Complete("r1", nil)
			m2.Complete("r2", nil)
			return "phase", nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	r.Bind(m1, phase)
	r.Bind(m2, phase)

	// A single /v1/mine arriving now must join member m1 via the key.
	single, joined, err := r.Submit(SubmitOpts{Key: "set1", Run: nil})
	if err != nil || !joined || single != m1 {
		t.Fatalf("single did not join the batch member: joined=%v err=%v", joined, err)
	}

	close(phaseGo)
	if v, err := r.Wait(context.Background(), m1); err != nil || v != "r1" {
		t.Fatalf("member1 Wait = (%v, %v)", v, err)
	}
	if v, err := r.Wait(context.Background(), single); err != nil || v != "r1" {
		t.Fatalf("joined single Wait = (%v, %v)", v, err)
	}
	if v, err := r.Wait(context.Background(), m2); err != nil || v != "r2" {
		t.Fatalf("member2 Wait = (%v, %v)", v, err)
	}
	waitFor(t, "phase job to finish", func() bool { return phase.State() == StateDone })
}

// TestMemberMirrorsQueuedPhase: a member bound to a queued phase reports
// queued, with no start time, until the phase starts; a phase cancelled
// before it runs takes its members with it.
func TestMemberMirrorsQueuedPhase(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	block := make(chan struct{})
	r.Submit(SubmitOpts{Detached: true, Run: func(context.Context, *Job) (any, error) { <-block; return nil, nil }})
	waitFor(t, "worker busy", func() bool { return r.Snapshot().Running == 1 })
	phase := func(run RunFunc, members ...*Job) *Job {
		p, _, _ := r.Submit(SubmitOpts{Detached: true, Run: run})
		for _, m := range members {
			r.Bind(m, p)
		}
		return p
	}

	m, _ := r.External(SubmitOpts{Key: "m"})
	phase(func(context.Context, *Job) (any, error) { m.Complete("done", nil); return nil, nil }, m)
	if _, started, _ := m.Times(); m.State() != StateQueued || !started.IsZero() {
		t.Fatalf("member of a queued phase: state %v, started %v", m.State(), started)
	}
	m2, _ := r.External(SubmitOpts{Key: "m2"})
	r.Cancel(phase(nil, m2))
	if _, err := r.Wait(context.Background(), m2); !errors.Is(err, ErrCancelled) {
		t.Fatalf("member of a phase cancelled while queued: err %v, want ErrCancelled", err)
	}

	close(block)
	if v, err := r.Wait(context.Background(), m); err != nil || v != "done" {
		t.Fatalf("member Wait = (%v, %v)", v, err)
	}
	if _, started, _ := m.Times(); started.IsZero() {
		t.Fatal("member has no start time after its phase ran")
	}
}

// TestAbandonedMembersCancelPhase: when every member of a batch loses its
// last caller, the phase job's context is cancelled so the mining stops.
func TestAbandonedMembersCancelPhase(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	m1, _ := r.External(SubmitOpts{Key: "a"})
	m2, _ := r.External(SubmitOpts{Key: "b"})
	phaseStop := make(chan struct{})
	phase, _, err := r.Submit(SubmitOpts{Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) {
			<-ctx.Done()
			close(phaseStop)
			m1.Complete(nil, ctx.Err())
			m2.Complete(nil, ctx.Err())
			return nil, ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	r.Bind(m1, phase)
	r.Bind(m2, phase)
	waitFor(t, "phase running", func() bool { return phase.State() == StateRunning })

	r.Release(m1) // member abandoned: hard-cancelled, phase keeps going for m2
	if st := m1.State(); st != StateCancelled {
		t.Fatalf("abandoned member state = %v, want cancelled", st)
	}
	select {
	case <-phaseStop:
		t.Fatal("phase cancelled while a member had a caller")
	case <-time.After(20 * time.Millisecond):
	}

	r.Release(m2) // last interest gone: phase context must end
	select {
	case <-phaseStop:
	case <-time.After(5 * time.Second):
		t.Fatal("phase not cancelled after all members were abandoned")
	}
}

// TestRetainedJobSurvivesAndExpires: async jobs outlive their submitter,
// stay pollable after finishing, and are GC'd once the TTL passes.
func TestRetainedJobSurvivesAndExpires(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, TTL: 60 * time.Millisecond})
	j, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) { return "kept", nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool { return j.State() == StateDone })
	got, ok := r.Get(j.ID())
	if !ok || got != j {
		t.Fatal("finished retained job not pollable")
	}
	if v, _, ok := j.Result(); !ok || v != "kept" {
		t.Fatalf("Result = (%v, %v)", v, ok)
	}
	waitFor(t, "TTL GC", func() bool { _, ok := r.Get(j.ID()); return !ok })
	if s := r.Snapshot(); s.Expired == 0 {
		t.Fatalf("Expired = %d, want > 0", s.Expired)
	}
}

// TestJoinUpgradesRetention: an async submission joining a plain in-flight
// run upgrades it to retained, so the job stays pollable after the
// original waiter finishes.
func TestJoinUpgradesRetention(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, TTL: time.Minute})
	release := make(chan struct{})
	j, _, err := r.Submit(SubmitOpts{Key: "q",
		Run: func(ctx context.Context, j *Job) (any, error) { <-release; return "v", nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "running", func() bool { return j.State() == StateRunning })
	async, joined, err := r.Submit(SubmitOpts{Key: "q", Retain: true, Detached: true, Run: nil})
	if err != nil || !joined || async != j {
		t.Fatalf("async join: joined=%v err=%v", joined, err)
	}
	close(release)
	if v, err := r.Wait(context.Background(), j); err != nil || v != "v" {
		t.Fatalf("Wait = (%v, %v)", v, err)
	}
	if _, ok := r.Get(j.ID()); !ok {
		t.Fatal("upgraded job dropped after its sync waiter left")
	}
}

// TestEventsReplayAndFollow: late subscribers replay the log from any
// cursor; followers wake on new events and on the terminal transition.
func TestEventsReplayAndFollow(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	emit := make(chan string)
	j, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) {
			for {
				select {
				case s, ok := <-emit:
					if !ok {
						return "final", nil
					}
					j.Emit("progress", s)
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	emit <- "a"
	emit <- "b"
	// A channel handoff returns before the worker's Emit lands: wait for
	// the log, not the send.
	waitFor(t, "two events in the log", func() bool {
		evs, _, _, _ := j.EventsSince(0)
		return len(evs) == 2
	})

	evs, next, finished, wake := j.EventsSince(0)
	if len(evs) != 2 || evs[0].Data != "a" || evs[1].Data != "b" || finished {
		t.Fatalf("replay = %+v finished=%v", evs, finished)
	}
	go func() { emit <- "c"; close(emit) }()
	<-wake
	evs, _, _, _ = j.EventsSince(next)
	if len(evs) != 1 || evs[0].Data != "c" || evs[0].Seq != 2 {
		t.Fatalf("follow = %+v", evs)
	}
	waitFor(t, "job done", func() bool { return j.State() == StateDone })
	_, _, finished, _ = j.EventsSince(0)
	if !finished {
		t.Fatal("EventsSince does not report the terminal state")
	}
}

// TestEventBufferTrims: the log is bounded; a late subscriber reading from
// below the trim point gets an explicit truncation marker carrying the
// dropped count, then the surviving suffix.
func TestEventBufferTrims(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, EventBuffer: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	j, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) {
			for i := 0; i < 10; i++ {
				j.Emit("progress", i)
			}
			close(started)
			<-release
			return nil, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	evs, next, _, _ := j.EventsSince(0)
	if len(evs) != 5 || next != 10 {
		t.Fatalf("trimmed log = %+v next=%d, want marker + seqs 6..9", evs, next)
	}
	if evs[0].Type != EventTruncated || evs[0].Data != 6 {
		t.Fatalf("marker = %+v, want truncated with 6 dropped", evs[0])
	}
	if evs[1].Seq != 6 || evs[4].Seq != 9 {
		t.Fatalf("surviving suffix = %+v, want seqs 6..9", evs[1:])
	}
	// Reading from the trim point or above stays marker-free.
	if evs, _, _, _ := j.EventsSince(6); len(evs) != 4 || evs[0].Type != "progress" {
		t.Fatalf("aligned read = %+v, want plain seqs 6..9", evs)
	}
	close(release)
}

// TestFollowerReplayAcrossCap: a follower with a valid cursor that the cap
// laps mid-stream sees exactly one marker counting what it missed, then
// resumes contiguously — the replay path across the cap.
func TestFollowerReplayAcrossCap(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, EventBuffer: 4})
	step := make(chan int)
	j, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) {
			for n := range step {
				for i := 0; i < n; i++ {
					j.Emit("progress", i)
				}
			}
			return nil, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	step <- 2
	waitFor(t, "first two events", func() bool {
		evs, _, _, _ := j.EventsSince(0)
		return len(evs) == 2
	})
	_, next, _, _ := j.EventsSince(0) // follower drained seqs 0..1, cursor 2

	step <- 8 // seqs 2..9; the 4-slot buffer keeps only 6..9
	close(step)
	waitFor(t, "log to trim past the cursor", func() bool {
		evs, _, _, _ := j.EventsSince(next)
		return len(evs) > 0 && evs[0].Type == EventTruncated
	})
	evs, next2, _, _ := j.EventsSince(next)
	if evs[0].Data != 4 { // seqs 2..5 dropped
		t.Fatalf("marker = %+v, want 4 dropped", evs[0])
	}
	if len(evs) != 5 || evs[1].Seq != 6 || evs[4].Seq != 9 || next2 != 10 {
		t.Fatalf("resume = %+v next=%d, want seqs 6..9", evs, next2)
	}
	// The follower keeps following from the new cursor without re-marking.
	if evs, _, _, _ := j.EventsSince(next2); len(evs) != 0 {
		t.Fatalf("post-resume read = %+v, want empty", evs)
	}
}

// TestWatchdogKillsStuckJob: a RunFunc that ignores its context past
// deadline+grace is failed with ErrWatchdogKilled and its worker slot is
// freed, so the pool keeps executing new jobs; the wedged goroutine's late
// return changes nothing.
func TestWatchdogKillsStuckJob(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, WatchdogGrace: 20 * time.Millisecond})
	wedge := make(chan struct{})
	defer close(wedge)
	j, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true, Kind: "stuck",
		Deadline: 10 * time.Millisecond,
		Run: func(ctx context.Context, j *Job) (any, error) {
			<-wedge // ignores ctx: a stuck evaluator
			return "late", nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watchdog kill", func() bool { return j.State() == StateFailed })
	if _, err, _ := j.Result(); !errors.Is(err, ErrWatchdogKilled) {
		t.Fatalf("err = %v, want ErrWatchdogKilled", err)
	}
	select {
	case <-j.Context().Done():
	default:
		t.Fatal("killed job's context not cancelled")
	}

	// The single worker slot must be free again: a fresh job runs.
	after, _, err := r.Submit(SubmitOpts{Run: func(ctx context.Context, j *Job) (any, error) { return "ok", nil }})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Wait(context.Background(), after); err != nil || v != "ok" {
		t.Fatalf("post-kill job = (%v, %v), want ok — slot not freed", v, err)
	}
	s := r.Snapshot()
	if s.WatchdogKilled != 1 || s.Failed != 1 {
		t.Fatalf("snapshot = %+v, want 1 watchdog-killed", s)
	}
}

// TestWatchdogSparesCancellableRuns: a run that respects its context and a
// run that finishes inside deadline+grace are never watchdog-killed.
func TestWatchdogSparesCancellableRuns(t *testing.T) {
	r := testRegistry(t, Options{Workers: 2, WatchdogGrace: 30 * time.Millisecond})
	quick, _, err := r.Submit(SubmitOpts{Deadline: 5 * time.Second,
		Run: func(ctx context.Context, j *Job) (any, error) { return "fast", nil }})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Wait(context.Background(), quick); err != nil || v != "fast" {
		t.Fatalf("fast job = (%v, %v)", v, err)
	}
	// No deadline → never killed, however long it runs.
	release := make(chan struct{})
	slow, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) { <-release; return "slow", nil }})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // several watchdog ticks
	if st := slow.State(); st != StateRunning {
		t.Fatalf("deadline-free job state = %v, want running", st)
	}
	close(release)
	waitFor(t, "slow job done", func() bool { return slow.State() == StateDone })
	if s := r.Snapshot(); s.WatchdogKilled != 0 {
		t.Fatalf("WatchdogKilled = %d, want 0", s.WatchdogKilled)
	}
}

// TestWatchdogKillsExternalJob: an external member whose owner wedged is
// failed too, so batch collectors waiting on it unblock.
func TestWatchdogKillsExternalJob(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, WatchdogGrace: 20 * time.Millisecond})
	m, _ := r.External(SubmitOpts{Key: "member", Deadline: 10 * time.Millisecond})
	if _, err := r.Wait(context.Background(), m); !errors.Is(err, ErrWatchdogKilled) {
		t.Fatalf("member Wait err = %v, want ErrWatchdogKilled", err)
	}
	m.Complete("late", nil) // the wedged owner reporting late is a no-op
	if st := m.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
}

// TestDrain: draining rejects new submissions with ErrDraining, still lets
// callers join in-flight work, finishes what was admitted, and DrainWait
// returns once the registry is idle.
func TestDrain(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	release := make(chan struct{})
	j, _, err := r.Submit(SubmitOpts{Key: "inflight", Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) { <-release; return "done", nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return j.State() == StateRunning })

	r.Drain()
	if !r.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, _, err := r.Submit(SubmitOpts{Run: nil}); !errors.Is(err, ErrDraining) {
		t.Fatalf("drained Submit err = %v, want ErrDraining", err)
	}
	joinedJob, joined, err := r.Submit(SubmitOpts{Key: "inflight", Run: nil})
	if err != nil || !joined || joinedJob != j {
		t.Fatalf("drained join: joined=%v err=%v", joined, err)
	}
	r.Release(joinedJob)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := r.DrainWait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DrainWait with work in flight = %v, want deadline exceeded", err)
	}
	cancel()

	close(release)
	if err := r.DrainWait(context.Background()); err != nil {
		t.Fatalf("DrainWait = %v", err)
	}
	if v, _, ok := j.Result(); !ok || v != "done" {
		t.Fatalf("in-flight job after drain = (%v, %v), want done", v, ok)
	}
	if s := r.Snapshot(); !s.Draining {
		t.Fatal("snapshot does not report draining")
	}
}

// TestBatchPriorityReserve: batch submissions are shed while only the
// interactive reserve remains; interactive ones may fill the whole queue.
func TestBatchPriorityReserve(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1, QueueDepth: 2, InteractiveReserve: 1})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, j *Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	running, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true, Run: block})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return running.State() == StateRunning })

	// Queue empty (0 of 2): batch may use the unreserved slot.
	if _, _, err := r.Submit(SubmitOpts{Priority: PriorityBatch, Detached: true, Retain: true, Run: block}); err != nil {
		t.Fatalf("batch into free queue rejected: %v", err)
	}
	// Queue at 1 of 2: only the reserved slot remains — batch is shed...
	if _, _, err := r.Submit(SubmitOpts{Priority: PriorityBatch, Detached: true, Retain: true, Run: block}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("batch into reserve err = %v, want ErrSaturated", err)
	}
	// ...while interactive still gets in.
	if _, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true, Run: block}); err != nil {
		t.Fatalf("interactive into reserve rejected: %v", err)
	}
	// Now the queue is truly full: interactive is shed the ordinary way.
	if _, _, err := r.Submit(SubmitOpts{Detached: true, Retain: true, Run: block}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("interactive into full queue err = %v, want ErrSaturated", err)
	}
	s := r.Snapshot()
	if s.Rejected != 2 || s.RejectedBatch != 1 {
		t.Fatalf("snapshot = %+v, want 2 rejected of which 1 batch", s)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	r := New(Options{Workers: 1})
	j, _, err := r.Submit(SubmitOpts{Retain: true, Detached: true,
		Run: func(ctx context.Context, j *Job) (any, error) { <-ctx.Done(); return nil, ctx.Err() }})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "running", func() bool { return j.State() == StateRunning })
	r.Close()
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state after Close = %v", st)
	}
	if _, _, err := r.Submit(SubmitOpts{Run: nil}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Submit err = %v, want ErrClosed", err)
	}
}

// TestConcurrentChurn hammers the registry from many goroutines — joins,
// waits, cancels, abandons — to give the race detector surface.
func TestConcurrentChurn(t *testing.T) {
	r := testRegistry(t, Options{Workers: 4, QueueDepth: 64, TTL: 10 * time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%7)
				j, _, err := r.Submit(SubmitOpts{Key: key, Retain: i%3 == 0, Kind: "churn",
					Run: func(ctx context.Context, j *Job) (any, error) {
						j.Emit("progress", i)
						return key, nil
					}})
				if errors.Is(err, ErrSaturated) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				switch i % 4 {
				case 0:
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					r.Wait(ctx, j)
				case 1:
					r.Cancel(j)
					r.Release(j)
				default:
					if v, err := r.Wait(context.Background(), j); err == nil && v != key {
						t.Errorf("wrong result %v for %s", v, key)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Submitted == 0 || s.Completed == 0 {
		t.Fatalf("churn did nothing: %+v", s)
	}
}

// TestJobIntrospection covers the accessor surface the HTTP layer builds
// job documents from: identity, metadata, lifecycle channels and the wire
// names of every state.
func TestJobIntrospection(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	j, joined := r.External(SubmitOpts{Key: "intro", Kind: "mine", Meta: "m"})
	if joined {
		t.Fatal("first External joined")
	}
	if j.Key() != "intro" || j.Kind() != "mine" || j.Meta() != "m" {
		t.Fatalf("accessors = (%q, %q, %v)", j.Key(), j.Kind(), j.Meta())
	}
	if j.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", j.Refs())
	}
	r.Attach(j)
	if j.Refs() != 2 {
		t.Fatalf("refs after Attach = %d, want 2", j.Refs())
	}
	r.Release(j)
	select {
	case <-j.Done():
		t.Fatal("Done closed before completion")
	case <-j.Context().Done():
		t.Fatal("Context ended before completion")
	default:
	}
	j.Complete("v", nil)
	<-j.Done()
	<-j.Context().Done()
	if v, err, ok := j.Result(); !ok || err != nil || v != "v" {
		t.Fatalf("Result = (%v, %v, %v)", v, err, ok)
	}

	names := map[State]string{
		StateQueued: "queued", StateRunning: "running", StateDone: "done",
		StateFailed: "failed", StateCancelled: "cancelled", State(99): "unknown",
	}
	for st, want := range names {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// TestExternalJoinAndClosedRegistry covers the External fast paths: a
// second registration under a live key joins the first job, and a closed
// registry hands out born-cancelled jobs instead of nil.
func TestExternalJoinAndClosedRegistry(t *testing.T) {
	r := testRegistry(t, Options{Workers: 1})
	a, _ := r.External(SubmitOpts{Key: "dup", Kind: "mine"})
	b, joined := r.External(SubmitOpts{Key: "dup", Kind: "mine"})
	if !joined || a != b {
		t.Fatalf("second External: joined=%v same=%v", joined, a == b)
	}
	r.Release(b)
	a.Complete(nil, nil)
	r.Wait(context.Background(), a)

	closed := New(Options{Workers: 1})
	closed.Close()
	j, joined := closed.External(SubmitOpts{Key: "k", Kind: "mine"})
	if joined || j == nil {
		t.Fatalf("closed External: j=%v joined=%v", j, joined)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("closed External state = %v, want cancelled", st)
	}
	if _, err, ok := j.Result(); !ok || !errors.Is(err, ErrCancelled) {
		t.Fatalf("closed External result = (%v, %v)", err, ok)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("closed External job not Done")
	}
}
