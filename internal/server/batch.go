package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server/faults"
	"github.com/remi-kb/remi/internal/server/jobs"
)

// errBatchAborted finalizes batch members whose mining phase exited before
// delivering them (phase failure, cancellation, panic).
var errBatchAborted = errors.New("batch mining phase aborted")

// batchPlan is one validated mining request decomposed into per-set
// outcomes: validation failures and cache hits are answered in place,
// repeats collapse onto their first occurrence, and the remainder becomes
// member jobs in the unified registry — joinable by (and joining) every
// other mining request — mined together by one pool-executed phase job. A
// single-set request (`targets`) is a plan of one set.
type batchPlan struct {
	e      *kbEntry
	shared MineRequest
	opts   []remi.MineOption
	reqID  string
	// single marks a `targets` request: it is answered in the /v1/mine
	// shape and mined at interactive priority.
	single bool
	// retain keeps the members pollable past their waiters (an async
	// single's member is the client's job handle).
	retain bool

	items      []BatchMineItem
	agg        BatchMineStats
	keyOf      []string
	firstOfKey map[string]int
	runIdx     []int      // first-occurrence indexes that need mining
	runSets    [][]string // their normalized target sets

	waits  map[int]*jobs.Job // member job per runnable index
	joined map[int]bool      // member joined a foreign in-flight run
	phase  *jobs.Job         // pool job mining the new members (nil if none)
}

// fill records one per-set outcome into its slot and aggregate bucket.
func (p *batchPlan) fill(i int, item BatchMineItem) {
	p.items[i] = item
	switch {
	case item.Response == nil:
		p.agg.Errors++
	case item.Response.Deduplicated:
		p.agg.Deduplicated++
	case item.Response.Cached:
		p.agg.Cached++
	default:
		p.agg.Mined++
		p.agg.QueueBuildMS += item.Response.Stats.QueueBuildMS
		p.agg.SearchMS += item.Response.Stats.SearchMS
	}
}

// buildBatchPlan validates the request and runs pass 1: normalize each set,
// collapse in-batch repeats onto the first occurrence of their key, serve
// cache hits, and collect the sets that actually need mining. A single's
// one set failing validation fails the request, as /v1/mine always has. On
// failure the request is answered here and the plan is nil.
func (s *Server) buildBatchPlan(w http.ResponseWriter, r *http.Request, c *counter, q *BatchMineRequest, single bool) *batchPlan {
	fail := func(status int, err error) *batchPlan {
		s.writeError(w, c, status, err)
		return nil
	}
	e, err := s.kbFromRequest(r, q.KB)
	if err != nil {
		return fail(errStatus(err), err)
	}
	if len(q.Sets) == 0 {
		return fail(http.StatusBadRequest, errors.New("sets is required"))
	}
	if len(q.Sets) > s.opts.MaxBatchSets {
		return fail(http.StatusBadRequest,
			fmt.Errorf("%d sets exceed the batch limit of %d", len(q.Sets), s.opts.MaxBatchSets))
	}
	// Validate and canonicalize the shared options once; the canonical
	// fields then feed every per-set dedup/cache key.
	shared := MineRequest{
		KB:         e.name,
		Metric:     q.Metric,
		Language:   q.Language,
		Workers:    q.Workers,
		TimeoutMS:  q.TimeoutMS,
		TopK:       q.TopK,
		Exceptions: q.Exceptions,
	}
	opts, err := s.mineOptions(&shared)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	p := &batchPlan{
		e:          e,
		shared:     shared,
		opts:       opts,
		reqID:      requestIDOf(r),
		single:     single,
		items:      make([]BatchMineItem, len(q.Sets)),
		agg:        BatchMineStats{Sets: len(q.Sets)},
		keyOf:      make([]string, len(q.Sets)),
		firstOfKey: make(map[string]int, len(q.Sets)),
		waits:      make(map[int]*jobs.Job),
		joined:     make(map[int]bool),
	}
	for i, targets := range q.Sets {
		qi := shared
		qi.Targets = targets
		qi.normalize()
		if len(qi.Targets) == 0 {
			p.fill(i, BatchMineItem{Error: "targets is required", Status: http.StatusBadRequest})
			continue
		}
		if len(qi.Targets) > s.opts.MaxTargets {
			p.fill(i, BatchMineItem{
				Error:  fmt.Sprintf("%d targets exceed the limit of %d", len(qi.Targets), s.opts.MaxTargets),
				Status: http.StatusBadRequest,
			})
			continue
		}
		key := s.cacheKey(e, qi.key())
		p.keyOf[i] = key
		if _, ok := p.firstOfKey[key]; ok {
			continue // filled from the first occurrence in the repeats pass
		}
		p.firstOfKey[key] = i
		if res, ok := s.cachedResult(key); ok {
			p.fill(i, BatchMineItem{Response: wireResult(res, false, true)})
			continue
		}
		p.runIdx = append(p.runIdx, i)
		p.runSets = append(p.runSets, qi.Targets)
	}
	if item := p.items[0]; single && item.Error != "" {
		return fail(item.Status, errors.New(item.Error))
	}
	return p
}

// submitBatchJobs registers the plan's runnable sets in the unified
// registry: each becomes an externally-executed member job under its
// flight key — so a set joins identical work in flight for any other
// request — and the genuinely new members are mined by one pool-executed
// phase job they are bound to. On error nothing is left running and every
// planned member reference is released.
func (s *Server) submitBatchJobs(p *batchPlan) error {
	var newIdx []int
	var newSets [][]string
	var members []*jobs.Job
	// The watchdog bound covers the whole phase: per-set budgets overlap
	// under concurrency, so serial execution of every new set is the worst
	// honest case — anything past that is a wedged evaluator. Members share
	// the phase bound (a member may legitimately finish last in the batch).
	phaseDeadline := s.jobDeadline(time.Duration(p.shared.TimeoutMS) * time.Millisecond * time.Duration(len(p.runIdx)))
	for pos, i := range p.runIdx {
		j, joined := s.jobs.External(jobs.SubmitOpts{
			Key:      p.keyOf[i],
			Kind:     jobKindMine,
			Meta:     jobMeta{kb: p.e.name, requestID: p.reqID},
			Retain:   p.retain,
			Deadline: phaseDeadline,
		})
		p.waits[i] = j
		if joined {
			p.joined[i] = true
			s.dedupedHits.Add(1)
			continue
		}
		newIdx = append(newIdx, i)
		newSets = append(newSets, p.runSets[pos])
		members = append(members, j)
	}
	if len(members) == 0 {
		return nil
	}
	priority := jobs.PriorityBatch
	if p.single {
		priority = jobs.PriorityInteractive
	}
	phase, _, err := s.jobs.Submit(jobs.SubmitOpts{
		Kind:     jobKindBatchPhase,
		Meta:     jobMeta{kb: p.e.name, requestID: p.reqID},
		Run:      s.batchPhaseRun(p, newIdx, newSets, members),
		Priority: priority,
		Deadline: phaseDeadline,
	})
	if err != nil {
		for _, m := range members {
			m.Complete(nil, err)
		}
		s.releaseBatch(p)
		return err
	}
	for _, m := range members {
		s.jobs.Bind(m, phase)
	}
	p.phase = phase
	return nil
}

// submitPlan is submitBatchJobs for a handler: a refused submission is
// answered here (429 with Retry-After when the pool is saturated) and its
// error returned.
func (s *Server) submitPlan(w http.ResponseWriter, c *counter, p *batchPlan) error {
	err := s.submitBatchJobs(p)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrSaturated):
		s.shedLoad(w, c, err)
	default:
		s.writeError(w, c, errStatus(err), err)
	}
	return err
}

// releaseBatch drops the plan's job references without waiting (error paths
// that answer before collecting).
func (s *Server) releaseBatch(p *batchPlan) {
	for _, j := range p.waits {
		s.jobs.Release(j)
	}
	p.waits = make(map[int]*jobs.Job)
	if p.phase != nil {
		s.jobs.Release(p.phase)
		p.phase = nil
	}
}

// batchPhaseRun mines the plan's new member sets in one facade pass —
// keeping the queue-prep and evaluator-cache sharing MineBatchEach provides
// — and completes each member as its set finishes, so waiters (this
// request, joined requests, other batches) unblock per set rather than per
// batch. Each set's progress events go to its member's event log for
// streaming subscribers.
func (s *Server) batchPhaseRun(p *batchPlan, idx []int, sets [][]string, members []*jobs.Job) jobs.RunFunc {
	return func(ctx context.Context, phase *jobs.Job) (any, error) {
		defer func() {
			// Whatever ends this run — error, cancellation, panic, watchdog —
			// no member may dangle unfinished, and each learns the cause.
			// Complete is a no-op on delivered ones.
			rec := recover()
			cause := errBatchAborted
			if _, err, done := phase.Result(); done && err != nil {
				cause = err
			} else if rec != nil {
				cause = fmt.Errorf("%w: %v", jobs.ErrPanicked, rec)
			} else if err := ctx.Err(); err != nil {
				cause = fmt.Errorf("%w: %v", errBatchAborted, err)
			}
			for _, m := range members {
				m.Complete(nil, cause)
			}
			if rec != nil {
				panic(rec) // the registry fails the phase and logs the stack
			}
		}()
		// Chaos hooks after the containment defer: an injected panic or wedge
		// must exercise the same member cleanup a real evaluator bug would.
		if err := faults.Fire(ctx, faults.JobStuck); err != nil {
			return nil, err
		}
		if err := faults.Fire(ctx, faults.MinePanic); err != nil {
			return nil, err
		}
		bopts := append(p.opts[:len(p.opts):len(p.opts)],
			remi.WithBatchConcurrency(s.opts.BatchWorkers),
			remi.WithProgress(func(pr remi.Progress) {
				members[pr.Set].Emit(streamProgress, StreamEvent{Event: streamProgress,
					Kind: pr.Kind, Expression: pr.Expression, Bits: pr.Bits})
			}))
		br, err := s.mineBatchEachContext(p.e, ctx, sets, func(bi int, entry remi.BatchEntry) {
			m := members[bi]
			if entry.Err != nil {
				m.Complete(nil, entry.Err)
				return
			}
			res := entry.Result
			// Only complete searches are worth remembering: a timed-out run
			// holds whatever the deadline allowed, and a retry with more
			// budget deserves a fresh search.
			if s.results != nil && !res.Stats.TimedOut {
				s.results.Put(p.keyOf[idx[bi]], res)
			}
			m.Complete(res, nil)
		}, bopts...)
		if err != nil {
			return nil, err
		}
		s.recordPhase(br)
		return br, nil
	}
}

// collectBatch waits for every member job and delivers outcomes in
// completion order through deliver (never concurrently). It returns
// ctx.Err() when the caller's context ended first; member references are
// dropped either way, so undelivered runs are abandoned per the registry's
// interest rules.
func (s *Server) collectBatch(ctx context.Context, p *batchPlan, deliver func(i int, item BatchMineItem)) error {
	wait := func(i int, j *jobs.Job) BatchMineItem {
		v, err := s.jobs.Wait(ctx, j)
		if err != nil {
			return BatchMineItem{Error: err.Error(), Status: errStatus(err)}
		}
		return BatchMineItem{Response: wireResult(v.(*remi.Result), p.joined[i], false)}
	}
	switch len(p.waits) {
	case 0: // every set answered in the plan (e.g. a cache hit)
		return ctx.Err()
	case 1:
		// One member has no completion order to keep: wait on the caller's
		// goroutine. Spawned waiters here measurably cut the hit rate of
		// the core's per-P queue-buffer pool on single-set requests.
		for i, j := range p.waits {
			if item := wait(i, j); ctx.Err() == nil {
				deliver(i, item)
			}
		}
		return ctx.Err()
	}
	type outcome struct {
		i    int
		item BatchMineItem
	}
	ch := make(chan outcome)
	var wg sync.WaitGroup
	for i, j := range p.waits {
		wg.Add(1)
		go func(i int, j *jobs.Job) {
			defer wg.Done()
			select {
			case ch <- outcome{i, wait(i, j)}:
			case <-ctx.Done():
			}
		}(i, j)
	}
	go func() { wg.Wait(); close(ch) }()
	for o := range ch {
		deliver(o.i, o.item)
	}
	return ctx.Err()
}

// finishBatch waits out the phase job for the exact whole-batch evaluator
// totals and fills the repeat entries: duplicates of an earlier set share
// its outcome, flagged as deduplicated (error outcomes are shared
// verbatim). Safe with a nil phase or an already-ended context.
func (s *Server) finishBatch(ctx context.Context, p *batchPlan) {
	if p.phase != nil {
		if v, err := s.jobs.Wait(ctx, p.phase); err == nil {
			if br, ok := v.(*remi.BatchResult); ok && br != nil {
				p.agg.CacheHits, p.agg.CacheMisses = br.CacheHits, br.CacheMisses
			}
		}
		p.phase = nil
	}
	for i := range p.items {
		key := p.keyOf[i]
		if key == "" {
			continue // per-set validation error, already filled
		}
		first := p.firstOfKey[key]
		if first == i {
			continue
		}
		src := p.items[first]
		if src.Response != nil {
			dup := *src.Response
			dup.Deduplicated = true
			p.fill(i, BatchMineItem{Response: &dup})
		} else {
			p.fill(i, src)
		}
	}
}

// handleMine is POST /v1/mine: one target set, answered as one result.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	s.cMine.requests.Add(1)
	var q MineRequest
	if s.decodeBody(w, r, &s.cMine, &q) {
		s.mineBlocking(w, r, &s.cMine, q.batch(), true)
	}
}

// handleMineBatch is POST /v1/mine:batch: many target sets, one KB, one
// shared mining pass, one JSON document with one entry per input set,
// order-preserving. Per-set failures (empty set, oversized set, unknown
// entity) occupy their own entry and never fail the batch.
func (s *Server) handleMineBatch(w http.ResponseWriter, r *http.Request) {
	s.cMineBatch.requests.Add(1)
	var q BatchMineRequest
	if s.decodeBody(w, r, &s.cMineBatch, &q) {
		s.mineBlocking(w, r, &s.cMineBatch, q, false)
	}
}

// mineBlocking serves a blocking mining request. Each runnable set is a
// member job in the unified registry, so identical work in flight anywhere
// — a single mine, another batch, an async job — is joined rather than
// repeated; the new sets share one mining phase on the worker pool.
func (s *Server) mineBlocking(w http.ResponseWriter, r *http.Request, c *counter, q BatchMineRequest, single bool) {
	if !s.admitMining(w, r, c, len(q.Sets)) {
		return
	}
	p := s.buildBatchPlan(w, r, c, &q, single)
	if p == nil || s.submitPlan(w, c, p) != nil {
		return
	}
	ctxErr := s.collectBatch(r.Context(), p, p.fill)
	s.finishBatch(r.Context(), p)
	switch {
	case ctxErr != nil:
		// The client went away (or its deadline passed) mid-run: the
		// results are partial at best, and nobody is reading.
		s.writeError(w, c, errStatus(ctxErr), ctxErr)
	case !single:
		writeJSON(w, http.StatusOK, BatchMineResponse{KB: p.e.name, Results: p.items, Stats: p.agg})
	case p.items[0].Response == nil:
		s.writeError(w, c, p.items[0].Status, errors.New(p.items[0].Error))
	default:
		writeJSON(w, http.StatusOK, p.items[0].Response)
	}
}
