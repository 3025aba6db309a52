package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/remi-kb/remi/internal/kb"
)

// ErrMinePanic wraps a panic recovered from one set's search inside
// MineBatch: the batch's worker goroutines run outside any server-side
// recovery, so an unrecovered panic there would kill the whole process
// instead of failing one set. Test with errors.Is.
var ErrMinePanic = errors.New("core: mining run panicked")

// BatchOutcome is the result of one target set within a MineBatch call.
// Outcomes are positional: MineBatch returns exactly one per input set, in
// input order.
type BatchOutcome struct {
	// Result is the mining result (nil when Err is set). Sets that repeat
	// inside the batch share one *Result; treat it as immutable.
	Result *Result
	// Err isolates per-set failures (currently only ErrNoTargets for an
	// empty set): one bad set never fails the batch.
	Err error
	// Deduplicated marks a set that was served by an identical earlier set
	// of the same batch instead of its own search.
	Deduplicated bool
}

// batchCache shares the expensive queue-prep work across the sets of one
// MineBatch call: scored, cost-sorted candidate lists keyed by first
// (minimum-id) target and finished queues keyed by the normalized target
// set (see buildQueueBatch). Both maps hold immutable values, so a hit
// returns exactly the bytes the unshared build would have produced. Values
// are computed outside the lock: two workers racing on one key may both
// compute, but the results are identical and last-write-wins, which keeps
// the hot path free of per-key wait channels.
type batchCache struct {
	mu      sync.Mutex
	anchors map[kb.EntID][]scored
	queues  map[string][]scored

	anchorHits, queueHits int // shared-work counters (read by tests)
}

func newBatchCache() *batchCache {
	return &batchCache{
		anchors: make(map[kb.EntID][]scored),
		queues:  make(map[string][]scored),
	}
}

// setKey packs a normalized target set into a map key (4 bytes per id; ids
// are sorted and duplicate-free, so equal sets and only equal sets collide).
func setKey(ids []kb.EntID) string {
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

func (bc *batchCache) getQueue(tgt []kb.EntID) ([]scored, bool) {
	key := setKey(tgt)
	bc.mu.Lock()
	defer bc.mu.Unlock()
	q, ok := bc.queues[key]
	if ok {
		bc.queueHits++
	}
	return q, ok
}

func (bc *batchCache) putQueue(tgt []kb.EntID, q []scored) {
	key := setKey(tgt)
	bc.mu.Lock()
	bc.queues[key] = q
	bc.mu.Unlock()
}

func (bc *batchCache) getAnchor(t kb.EntID) ([]scored, bool) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	c, ok := bc.anchors[t]
	if ok {
		bc.anchorHits++
	}
	return c, ok
}

func (bc *batchCache) putAnchor(t kb.EntID, c []scored) {
	bc.mu.Lock()
	bc.anchors[t] = c
	bc.mu.Unlock()
}

// hits returns the shared-work counters (anchor-list and whole-queue hits).
func (bc *batchCache) hits() (anchors, queues int) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.anchorHits, bc.queueHits
}

// MineBatch mines many target sets in one call, sharing one pass of the
// per-KB work that N independent MineContext calls would repeat: the
// evaluator's binding-set cache is warm across sets (striped, with per-key
// miss coalescing when sets run concurrently), the estimator's Ĉ memo is
// reused, identical sets collapse onto a single search, and sets sharing
// their first (minimum-id) target share the candidate enumeration feeding
// buildQueue. Results are byte-identical to per-set MineContext calls — the
// shared caches only memoize deterministic computations — and come back in
// input order, one outcome per set.
//
// concurrency bounds the worker pool fanning sets; values <= 0 pick
// GOMAXPROCS, 1 mines the sets serially. Per-set isolation holds throughout:
// Config.Timeout budgets each set separately, an empty set yields
// ErrNoTargets in its own outcome, and only cancelling ctx stops the whole
// batch (each still-running set then returns its partial result with
// Stats.TimedOut set, like MineContext).
//
// MineBatch may enable evaluator miss coalescing (when concurrency > 1), so
// it must not run concurrently with other Mine calls on the same Miner;
// facade callers construct a Miner per batch.
func (m *Miner) MineBatch(ctx context.Context, sets [][]kb.EntID, concurrency int) []BatchOutcome {
	return m.MineBatchEach(ctx, sets, concurrency, nil)
}

// MineBatchEach is MineBatch with per-set completion delivery: each is
// invoked once per input slot, as soon as that slot's outcome is known, and
// the returned slice still holds every outcome in input order. Invocations
// are serialized (never concurrent with each other), so the callback may
// write to shared state without its own locking; the slots of one collapsed
// search (in-batch repeats) are delivered back-to-back. Streaming servers
// use this to push entries to clients while later sets are still mining. A
// nil each makes it exactly MineBatch.
func (m *Miner) MineBatchEach(ctx context.Context, sets [][]kb.EntID, concurrency int, each func(slot int, o BatchOutcome)) []BatchOutcome {
	out := make([]BatchOutcome, len(sets))
	if len(sets) == 0 {
		return out
	}

	// Collapse identical sets: one search per distinct normalized set, its
	// outcome shared by every slot that asked for it.
	type job struct {
		tgt   []kb.EntID
		slots []int
	}
	var jobs []*job
	byKey := make(map[string]*job, len(sets))
	for i, set := range sets {
		if len(set) == 0 {
			out[i] = BatchOutcome{Err: ErrNoTargets}
			if each != nil {
				// No workers are running yet: empty-set outcomes stream out
				// before any search starts, with no lock needed.
				each(i, out[i])
			}
			continue
		}
		tgt := normalizeTargets(set)
		key := setKey(tgt)
		if j, ok := byKey[key]; ok {
			j.slots = append(j.slots, i)
			continue
		}
		j := &job{tgt: tgt, slots: []int{i}}
		byKey[key] = j
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return out
	}
	if concurrency < 1 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > len(jobs) {
		concurrency = len(jobs)
	}
	if concurrency > 1 {
		// Concurrent sets share the evaluator: stripe the cache and coalesce
		// per-key misses so parallel sets hammering the same queue-head
		// subgraphs compute each binding set once. Idempotent when the miner
		// already runs P-REMI workers.
		m.Ev.EnableCoalescing()
	}

	// A batch of one set has nothing to share: it runs exactly MineContext's
	// queue build.
	var bc *batchCache
	if len(jobs) > 1 {
		bc = newBatchCache()
	}
	var eachMu sync.Mutex // serializes each() across worker goroutines
	run := func(j *job) {
		res, err := func() (res *Result, err error) {
			// One set's panic fails its own outcome, not the process (and
			// not its batch neighbors): these goroutines are the server's
			// only mining path with no recovery above them.
			defer func() {
				if p := recover(); p != nil {
					res, err = nil, fmt.Errorf("%w: %v", ErrMinePanic, p)
				}
			}()
			return m.mineSet(ctx, j.slots[0], j.tgt, bc)
		}()
		eachMu.Lock()
		for si, slot := range j.slots {
			out[slot] = BatchOutcome{Result: res, Err: err, Deduplicated: si > 0}
			if each != nil {
				each(slot, out[slot])
			}
		}
		eachMu.Unlock()
	}
	if concurrency == 1 {
		for _, j := range jobs {
			run(j)
		}
		return out
	}
	work := make(chan *job)
	var wg sync.WaitGroup
	wg.Add(concurrency)
	for w := 0; w < concurrency; w++ {
		go func() {
			defer wg.Done()
			for j := range work {
				run(j)
			}
		}()
	}
	for _, j := range jobs {
		work <- j
	}
	close(work)
	wg.Wait()
	return out
}
