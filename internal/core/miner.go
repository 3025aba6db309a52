package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
)

// ErrNoTargets is returned when Mine is called with an empty target set.
var ErrNoTargets = errors.New("core: no target entities")

// Config tunes the miner. Start from DefaultConfig.
type Config struct {
	Language Language
	// ProminentCutoff is the fraction of top-frequency entities whose atoms
	// are not expanded (Section 3.5.2; the paper uses 5%).
	ProminentCutoff float64
	// CacheSize is the LRU capacity (in binding sets) of the query cache.
	CacheSize int
	// Timeout bounds one Mine call; zero means no limit. It composes with
	// the context passed to MineContext: the search stops at whichever of
	// the two ends first, and both are reported as Stats.TimedOut.
	Timeout time.Duration
	// Workers is the number of P-REMI threads; values <= 1 select the
	// sequential REMI.
	Workers int
	// MaxCandidates caps the priority queue as a safety valve (0 = no cap;
	// candidates are cost-sorted first, so the cheapest survive).
	MaxCandidates int
	// LiteralAlg2 switches DFS-REMI to the literal, single-consumption
	// pseudocode of Algorithm 2 instead of the tree-complete DFS that the
	// Figure 1 narrative describes (see DESIGN.md); kept for ablations.
	LiteralAlg2 bool
	// MaxStarsPerPath caps star derivations per intermediate entity.
	MaxStarsPerPath int
	// UnsortedQueue skips the cost sort of the priority queue (line 2 of
	// Algorithm 1) and explores candidates in enumeration order. The result
	// is still the least complex RE (the cost bound guarantees it), but the
	// DFS prunings lose their power — kept for the queue-order ablation.
	UnsortedQueue bool
	// MaxExceptions relaxes the unambiguity constraint (the paper's §6
	// future work: "relax the unambiguity constraint to mine REs with
	// exceptions"): a returned expression must still match every target but
	// may match up to MaxExceptions extra entities. Zero mines strict REs.
	MaxExceptions int
	// TopK asks the miner to keep the K least complex REs instead of only
	// the best one (Result.Solutions). Values <= 1 mine a single solution
	// with full pruning; K > 1 relaxes side pruning so that diverse
	// alternatives survive (used by the Section 4.1.2 study, which shows
	// users several REs encountered during search-space traversal).
	TopK int
	// ParallelQueueMinProbes is the floor on candidate·extra-target HoldsFor
	// probes below which buildQueue stays sequential: under it, the
	// goroutine fan-out costs more than it saves. Zero selects the built-in
	// default (4096), which was tuned on a 1-CPU container where the
	// parallel path never engages at benchmark scale — deployments on
	// many-core machines should re-tune this against their own workload
	// (lower it to engage the fan-out earlier). Negative values disable the
	// parallel queue build outright. The queue is byte-identical either way;
	// only the build time changes.
	ParallelQueueMinProbes int
	// Trace receives search events when non-nil (used by the Figure 1
	// walk-through); honored by the sequential miner only.
	Trace TraceFunc
	// TraceMask narrows which event kinds Trace receives; the zero mask
	// delivers everything. Progress-only subscribers (e.g. streaming
	// clients that just want EventNewBest) should set a narrow mask: the
	// miner skips the per-event expression Clone for masked-out kinds, so
	// a narrow mask keeps the per-node hot path allocation-free.
	TraceMask EventMask
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		Language:        ExtendedLanguage,
		ProminentCutoff: 0.05,
		CacheSize:       1 << 16,
		Workers:         1,
	}
}

// Stats describes one Mine run.
type Stats struct {
	Candidates  int           // size of the priority queue (line 2, Alg. 1)
	QueueBuild  time.Duration // phase 1: enumeration + sorting
	Search      time.Duration // phase 2: DFS exploration
	RETests     uint64        // expression evaluations against the KB
	Visited     uint64        // search-tree nodes visited
	PrunedDepth uint64        // prunings by depth
	PrunedSide  uint64        // side prunings
	PrunedCost  uint64        // cost-bound prunings (Ĉ(e') ≥ Ĉ(best))
	// TimedOut reports that the search stopped early, whether because
	// Config.Timeout elapsed or because the caller's context was cancelled.
	TimedOut bool
	// CacheHits and CacheMisses come from the evaluator's query cache. The
	// evaluator is shared by every P-REMI worker, so per-worker Stats carry
	// zeros here; Mine fills both fields once from the shared evaluator
	// after the search.
	CacheHits   uint64
	CacheMisses uint64
}

// add merges per-worker stats. CacheHits/CacheMisses are merged too for
// completeness, although per-worker values are always zero (see the field
// comment): the shared evaluator is the single source of cache truth.
func (s *Stats) add(o *Stats) {
	s.RETests += o.RETests
	s.Visited += o.Visited
	s.PrunedDepth += o.PrunedDepth
	s.PrunedSide += o.PrunedSide
	s.PrunedCost += o.PrunedCost
	s.TimedOut = s.TimedOut || o.TimedOut
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// Result is the outcome of a Mine call.
type Result struct {
	// Expression is the least complex RE found, or nil when no RE exists
	// for the targets in the KB (the ⊤ outcome of Algorithm 1).
	Expression expr.Expression
	// Bits is Ĉ(Expression) (infinite when Expression is nil).
	Bits float64
	// Solutions holds the Config.TopK least complex REs found, best first
	// (Solutions[0] corresponds to Expression).
	Solutions []Solution
	Stats     Stats
}

// Found reports whether an RE was found.
func (r *Result) Found() bool { return len(r.Expression) > 0 }

// Solution pairs a found RE with its complexity.
type Solution struct {
	Expression expr.Expression
	Bits       float64
}

// bound is the set of best solutions found so far, shared by every
// exploration thread in P-REMI ("the least complex solution e can be read
// and written by all threads", Section 3.4). With k > 1 it keeps the k
// cheapest distinct REs. set is the batch slot of the search the bound
// belongs to (0 outside MineBatch); trace events carry it.
type bound struct {
	mu   sync.Mutex
	k    int
	set  int
	sols []Solution
	keys map[string]bool
}

func newBound(k, set int) *bound {
	if k < 1 {
		k = 1
	}
	return &bound{k: k, set: set} // keys is made lazily on the first insert
}

// Cost returns the pruning threshold: the cost of the k-th best solution,
// or +Inf while fewer than k solutions are known.
func (b *bound) Cost() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sols) < b.k {
		return complexity.Infinite
	}
	return b.sols[len(b.sols)-1].Bits
}

// Offer inserts e when it improves the solution set; duplicates (same set of
// subgraph expressions) are ignored. The expression is cloned only when it
// is actually inserted, so callers can pass their live DFS prefix without
// paying an allocation for offers that lose on cost or are duplicates.
func (b *bound) Offer(e expr.Expression, cost float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sols) >= b.k && cost >= b.sols[len(b.sols)-1].Bits {
		return false
	}
	if b.k == 1 {
		// Single-solution fast path: the cost gate above already rejected
		// everything not strictly better than the incumbent, so a duplicate
		// expression (same set, same cost) can never get here — no need to
		// compute and store canonical keys at all.
		if len(b.sols) == 0 {
			b.sols = append(b.sols, Solution{})
		}
		b.sols[0] = Solution{Expression: e.Clone(), Bits: cost}
		return true
	}
	key := e.Key()
	if b.keys[key] {
		return false
	}
	if b.keys == nil {
		b.keys = make(map[string]bool)
	}
	b.keys[key] = true
	pos := sort.Search(len(b.sols), func(i int) bool { return b.sols[i].Bits > cost })
	b.sols = append(b.sols, Solution{})
	copy(b.sols[pos+1:], b.sols[pos:])
	b.sols[pos] = Solution{Expression: e.Clone(), Bits: cost}
	if len(b.sols) > b.k {
		drop := b.sols[len(b.sols)-1]
		delete(b.keys, drop.Expression.Key())
		b.sols = b.sols[:len(b.sols)-1]
	}
	return pos == 0
}

func (b *bound) Get() (expr.Expression, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sols) == 0 {
		return nil, complexity.Infinite
	}
	return b.sols[0].Expression, b.sols[0].Bits
}

// All returns the solution set, best first.
func (b *bound) All() []Solution {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Solution(nil), b.sols...)
}

// Miner mines referring expressions over one KB with one complexity
// estimator. Construct with NewMiner; safe for concurrent Mine calls.
type Miner struct {
	K   *kb.KB
	Est *complexity.Estimator
	Ev  *expr.Evaluator
	cfg Config

	prominent *kb.EntSet
}

// NewMiner assembles a miner from its parts.
func NewMiner(k *kb.KB, est *complexity.Estimator, cfg Config) *Miner {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultConfig().CacheSize
	}
	m := &Miner{
		K:   k,
		Est: est,
		Ev:  expr.NewEvaluator(k, cfg.CacheSize),
		cfg: cfg,
	}
	if cfg.Workers > 1 {
		// P-REMI workers share the evaluator and hammer the same queue-head
		// subgraphs on a cold cache: coalesce concurrent misses so each
		// binding set is computed once. Sequential REMI skips the (small)
		// per-miss overhead.
		m.Ev.EnableCoalescing()
	}
	if cfg.ProminentCutoff > 0 {
		m.prominent = k.ProminentSet(cfg.ProminentCutoff)
	}
	return m
}

// Config returns the miner configuration.
func (m *Miner) Config() Config { return m.cfg }

// scored pairs a candidate subgraph expression with its Ĉ cost.
type scored struct {
	g    expr.Subgraph
	cost float64
}

// queueBlock is the number of candidate indices a queue-build worker claims
// per round. parallelQueueMinProbes is the default floor on
// candidate·extra-target HoldsFor probes below which the goroutine fan-out
// costs more than it saves (overridable per miner via
// Config.ParallelQueueMinProbes); parallelQueueMinCands additionally lets
// giant single-target queues parallelize their Ĉ scoring even with no
// filter work (scoring a warm estimator cache is a ~20ns lock-free load, so
// only very large queues pay for the fan there).
const (
	queueBlock             = 256
	parallelQueueMinProbes = 4096
	parallelQueueMinCands  = 1 << 16
)

// queueBufs holds the queue-build working storage: the enumerated candidate
// slice and the scored queue. Both die with the Mine call that produced
// them, so they are pooled — on a warm miner the queue build's only
// steady-state allocations are table growth inside the pooled structures.
type queueBufs struct {
	cands []expr.Subgraph
	out   []scored
	costs []float64
	keep  []bool
}

var queueBufPool = sync.Pool{New: func() any { return &queueBufs{} }}

func getQueueBufs() *queueBufs   { return queueBufPool.Get().(*queueBufs) }
func putQueueBufs(qb *queueBufs) { queueBufPool.Put(qb) }

// buildQueue computes and cost-sorts the common subgraph expressions
// (lines 1–2 of Algorithm 1). The candidate set comes from one SubgraphsOf
// enumeration of the first target; the common-ness filter and Ĉ scoring of
// each candidate are independent, so on large queues they are fanned across
// a worker pool in index blocks. Results are written into position-aligned
// arrays and compacted in enumeration order, so the queue is byte-identical
// to the sequential build regardless of scheduling.
func (m *Miner) buildQueue(ctx context.Context, targets []kb.EntID, qb *queueBufs) ([]scored, bool) {
	return m.buildQueueShared(ctx, targets, qb, nil)
}

// buildQueueShared is buildQueue with an optional batch cache (nil outside
// MineBatch; see buildQueueBatch for the shared path).
func (m *Miner) buildQueueShared(ctx context.Context, targets []kb.EntID, qb *queueBufs, bc *batchCache) ([]scored, bool) {
	if bc != nil {
		return m.buildQueueBatch(ctx, targets, qb, bc)
	}
	cands := appendSubgraphsOf(qb.cands[:0], m.K, targets[0], m.enumerateOptions())
	qb.cands = cands
	out, timedOut := m.scoreQueue(ctx, cands, targets[1:], qb)
	if timedOut {
		return nil, true
	}
	return m.truncateQueue(out), false
}

// enumerateOptions is the miner's fixed candidate-enumeration setup.
func (m *Miner) enumerateOptions() EnumerateOptions {
	return EnumerateOptions{
		Language:        m.cfg.Language,
		Prominent:       m.prominent,
		MaxStarsPerPath: m.cfg.MaxStarsPerPath,
		// Labels are names, not descriptions: an RE built on rdfs:label
		// would be circular ("the entity labelled Paris"), so the label
		// predicate never enters the language.
		SkipPredID: m.K.LabelPredicate(),
	}
}

// truncateQueue applies the MaxCandidates safety valve (the queue is
// cost-sorted first in the default configuration, so the cheapest survive).
func (m *Miner) truncateQueue(out []scored) []scored {
	if m.cfg.MaxCandidates > 0 && len(out) > m.cfg.MaxCandidates {
		out = out[:m.cfg.MaxCandidates]
	}
	return out
}

// buildQueueBatch builds the queue through the MineBatch sharing cache.
// Two layers are memoized, both immutable and both byte-identical to what
// the unshared build computes. (1) Finished queues per normalized target
// set: an exact repeat costs nothing. (2) The scored, cost-sorted candidate
// list per first (minimum-id) target — the untruncated queue of {anchor}.
// A set sharing its anchor with an earlier set of the batch reduces to
// filtering that list by its remaining targets: enumeration, Ĉ scoring and
// the sort are all skipped, because common(T) = common({anchor}) filtered
// by the rest, and filtering a deterministically sorted list commutes with
// sorting the filtered one. This is the shared "one pass" of per-KB
// queue-prep work that makes a batch cheaper than N independent calls when
// a caller disambiguates overlapping candidate sets.
func (m *Miner) buildQueueBatch(ctx context.Context, targets []kb.EntID, qb *queueBufs, bc *batchCache) ([]scored, bool) {
	if q, ok := bc.getQueue(targets); ok {
		return q, false
	}
	base, ok := bc.getAnchor(targets[0])
	if !ok {
		cands := appendSubgraphsOf(qb.cands[:0], m.K, targets[0], m.enumerateOptions())
		qb.cands = cands
		all, timedOut := m.scoreQueue(ctx, cands, nil, qb)
		if timedOut {
			return nil, true
		}
		// Escape the pooled buffer: the cached list must survive this call.
		base = append([]scored(nil), all...)
		bc.putAnchor(targets[0], base)
	}
	rest := targets[1:]
	out := qb.out[:0]
	for i := range base {
		if i%1024 == 0 && expired(ctx) {
			return nil, true
		}
		if !holdsForAll(m.K, base[i].g, rest) {
			continue
		}
		out = append(out, base[i])
	}
	qb.out = out
	out = append([]scored(nil), m.truncateQueue(out)...)
	bc.putQueue(targets, out)
	return out, false
}

// scoreQueue filters the enumerated candidates down to those common to the
// extra targets and scores the survivors, fanning large queues across a
// worker pool, then cost-sorts the result (unless the queue-order ablation
// is on). The returned slice aliases qb's pooled storage.
func (m *Miner) scoreQueue(ctx context.Context, cands []expr.Subgraph, rest []kb.EntID, qb *queueBufs) ([]scored, bool) {
	var out []scored
	probes := len(cands) * len(rest)
	minProbes := m.cfg.ParallelQueueMinProbes
	if minProbes == 0 {
		minProbes = parallelQueueMinProbes
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && minProbes > 0 &&
		(probes >= minProbes || len(cands) >= parallelQueueMinCands) {
		var timedOut bool
		if out, timedOut = m.scoreQueueParallel(ctx, cands, rest, workers, qb); timedOut {
			return nil, true
		}
	} else {
		out = qb.out[:0]
		for i, g := range cands {
			if i%1024 == 0 && expired(ctx) {
				return nil, true
			}
			if !holdsForAll(m.K, g, rest) {
				continue
			}
			out = append(out, scored{g: g, cost: m.Est.Subgraph(g)})
		}
		qb.out = out
	}
	if !m.cfg.UnsortedQueue {
		slices.SortFunc(out, func(a, b scored) int {
			// Ĉ values are non-negative (log2 of 1-based ranks), so their
			// IEEE-754 bit patterns order identically to the floats — one
			// integer compare instead of two float branches.
			ca, cb := math.Float64bits(a.cost), math.Float64bits(b.cost)
			if ca != cb {
				if ca < cb {
					return -1
				}
				return 1
			}
			return expr.Compare(a.g, b.g)
		})
	}
	return out, false
}

// scoreQueueParallel filters and scores the enumerated candidates across a
// worker pool. Workers claim fixed-size index blocks off an atomic cursor
// and write cost/keep into arrays aligned with cands, so the compacted
// result preserves enumeration order exactly — the queue is deterministic
// for any GOMAXPROCS.
func (m *Miner) scoreQueueParallel(ctx context.Context, cands []expr.Subgraph, rest []kb.EntID, workers int, qb *queueBufs) ([]scored, bool) {
	if max := (len(cands) + queueBlock - 1) / queueBlock; workers > max {
		workers = max
	}
	if cap(qb.costs) < len(cands) {
		qb.costs = make([]float64, len(cands))
		qb.keep = make([]bool, len(cands))
	}
	costs := qb.costs[:len(cands)]
	keep := qb.keep[:len(cands)]
	for i := range keep {
		keep[i] = false
	}
	var next int64
	var bail atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, queueBlock)) - queueBlock
				if lo >= len(cands) || bail.Load() {
					return
				}
				if expired(ctx) {
					bail.Store(true)
					return
				}
				hi := lo + queueBlock
				if hi > len(cands) {
					hi = len(cands)
				}
				for i := lo; i < hi; i++ {
					g := cands[i]
					if !holdsForAll(m.K, g, rest) {
						continue
					}
					costs[i] = m.Est.Subgraph(g)
					keep[i] = true
				}
			}
		}()
	}
	wg.Wait()
	if bail.Load() {
		return nil, true
	}
	out := qb.out[:0]
	for i, g := range cands {
		if keep[i] {
			out = append(out, scored{g: g, cost: costs[i]})
		}
	}
	qb.out = out
	return out, false
}

// expired reports whether the search context has ended — by cancellation
// (client disconnect) or by deadline (Config.Timeout, a caller deadline, or
// both); the miner treats the two identically. The deadline is also checked
// against the wall clock directly: ctx.Err() turns non-nil only once the
// runtime timer has fired, which can lag a sub-millisecond timeout.
func expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && time.Now().After(d)
}

// RankedCandidates exposes lines 1–2 of Algorithm 1: the subgraph
// expressions common to the targets in ascending Ĉ order together with
// their costs. The qualitative evaluation (Table 2) ranks these directly.
func (m *Miner) RankedCandidates(targets []kb.EntID) ([]expr.Subgraph, []float64) {
	tgt := expr.SortIDs(append([]kb.EntID(nil), targets...))
	qb := getQueueBufs()
	defer putQueueBufs(qb)
	queue, _ := m.buildQueue(context.Background(), tgt, qb)
	gs := make([]expr.Subgraph, len(queue))
	costs := make([]float64, len(queue))
	for i, s := range queue {
		gs[i] = s.g
		costs[i] = s.cost
	}
	return gs, costs
}

// Mine returns the least complex RE for the targets, running REMI
// (Algorithm 1) or P-REMI (Section 3.4) depending on Config.Workers.
// Duplicate targets are allowed and collapse into a set.
func (m *Miner) Mine(targets []kb.EntID) (*Result, error) {
	return m.MineContext(context.Background(), targets)
}

// MineContext is Mine with a caller-controlled context: when ctx is
// cancelled or its deadline passes, the search (queue build, sequential DFS
// and every P-REMI worker alike) stops at its next periodic check and the
// best solution found so far is returned with Stats.TimedOut set, exactly
// as if Config.Timeout had elapsed. A non-zero Config.Timeout still
// applies, layered onto ctx, so whichever limit fires first stops the run.
func (m *Miner) MineContext(ctx context.Context, targets []kb.EntID) (*Result, error) {
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	return m.mineSet(ctx, 0, normalizeTargets(targets), nil)
}

// normalizeTargets sorts a copy of targets and collapses duplicates, the
// canonical form every search (and every batch dedup key) runs on.
func normalizeTargets(targets []kb.EntID) []kb.EntID {
	tgt := expr.SortIDs(append([]kb.EntID(nil), targets...))
	w := 1
	for i := 1; i < len(tgt); i++ {
		if tgt[i] != tgt[i-1] {
			tgt[w] = tgt[i]
			w++
		}
	}
	return tgt[:w]
}

// mineSet runs one search over a normalized (sorted, duplicate-free,
// non-empty) target set. Config.Timeout is applied here, per set, so each
// set of a batch gets its own budget. set is the search's batch slot,
// stamped on its trace events; bc is nil outside MineBatch and for a batch
// of one set.
func (m *Miner) mineSet(ctx context.Context, set int, tgt []kb.EntID, bc *batchCache) (*Result, error) {
	if m.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.Timeout)
		defer cancel()
	}
	res := &Result{Bits: complexity.Infinite}
	// Cache counters are reported per set as deltas of the evaluator's
	// cumulative stats: on a fresh miner the delta is the total, and inside
	// a serial batch the per-set values partition the evaluator totals
	// exactly. Sets running concurrently observe overlapping windows, so
	// their per-set values may attribute neighbors' lookups (bounded by the
	// pool width); callers needing exact batch totals should measure the
	// evaluator delta across the whole MineBatch call, as the facade does.
	_, hits0, misses0 := m.Ev.Stats()
	// The queue and its candidate buffer are pooled: they die with this
	// call (everything escaping into res is cloned), so the search borrows
	// them and returns them on exit.
	qb := getQueueBufs()
	defer putQueueBufs(qb)
	t0 := time.Now()
	queue, timedOut := m.buildQueueShared(ctx, tgt, qb, bc)
	res.Stats.QueueBuild = time.Since(t0)
	res.Stats.Candidates = len(queue)
	if timedOut {
		res.Stats.TimedOut = true
		return res, nil
	}

	t1 := time.Now()
	bnd := newBound(m.cfg.TopK, set)
	if m.cfg.Workers > 1 {
		m.mineParallel(ctx, queue, tgt, bnd, res)
	} else {
		m.mineSequential(ctx, queue, tgt, bnd, res)
	}
	res.Stats.Search = time.Since(t1)
	_, hits1, misses1 := m.Ev.Stats()
	res.Stats.CacheHits, res.Stats.CacheMisses = hits1-hits0, misses1-misses0
	if res.Found() {
		res.Bits = m.Est.Expression(res.Expression)
	}
	return res, nil
}

// solvableSuffixes computes, for every queue index i, whether the subtree
// rooted at queue[i] can contain an RE at all: the most specific expression
// available from index i on is the conjunction of all of queue[i:], whose
// binding set is the running intersection ("suffix floor") of the candidate
// binding sets. Since every candidate's bindings contain T, the floor
// contains T, and the subtree holds an RE iff the floor equals T exactly.
// Floors grow with i, so the result is monotone: true up to some index,
// false afterwards. This implements line 8 of Algorithm 1 exactly but ahead
// of time, avoiding an exponential exploration of hopeless subtrees.
// Two facts make the sweep cheap. First, can is monotone (floors only
// shrink as i decreases), so the moment one floor reaches the limit every
// earlier index is solvable too and the remaining intersections are skipped
// outright. Second, once the floor is small it usually stabilizes — most
// candidates' bindings are supersets of it — so the sweep verifies
// stability in batches: bindset.IntersectMany intersects the current floor
// against a window of upcoming candidates in one word-at-a-time pass, and
// only a window that actually shrinks the floor falls back to chaining from
// the shrink point. The computed can values are bit-identical to the plain
// right-to-left chain.
func (m *Miner) solvableSuffixes(ctx context.Context, queue []scored, targets []kb.EntID) ([]bool, bool) {
	can := make([]bool, len(queue))
	if len(queue) == 0 {
		return can, false
	}
	limit := len(targets) + m.cfg.MaxExceptions
	sc := getScratch()
	defer putScratch(sc)
	sfx := sc.suffix()

	floor := m.Ev.Bindings(queue[len(queue)-1].g)
	i := len(queue) - 1
	if floor.Card() <= limit {
		for ; i >= 0; i-- {
			can[i] = true
		}
		return can, false
	}
	i--
	cur := 0    // index of the scratch array NOT holding the live floor
	window := 1 // adaptive batch width: doubles on stable rounds
	for i >= 0 {
		if expired(ctx) {
			return can, true
		}
		n := window
		if n > i+1 {
			n = i + 1
		}
		arr := sfx[cur]
		for j := 0; j < n; j++ {
			arr.bind[j] = m.Ev.Bindings(queue[i-j].g)
		}
		bindset.IntersectMany(arr.ptrs[:n], floor, arr.bind[:n])
		shrunk := false
		for j := 0; j < n; j++ {
			idx := i - j
			if arr.sets[j].Card() == floor.Card() {
				// The candidate's bindings contain the floor: the chained
				// floor at idx is still `floor`, which exceeds the limit.
				can[idx] = false
				continue
			}
			// First shrink in the window: the products after it were taken
			// against the now-stale floor, so restart chaining from here
			// with the new floor (which lives in the array just written —
			// the next round writes the other one).
			floor = arr.sets[j]
			cur ^= 1
			window = 1
			shrunk = true
			if floor.Card() <= limit {
				for t := idx; t >= 0; t-- {
					can[t] = true
				}
				return can, false
			}
			can[idx] = false
			i = idx - 1
			break
		}
		if !shrunk {
			i -= n
			if window < childBatch {
				window *= 2
			}
		}
	}
	return can, false
}

// mineSequential is Algorithm 1: dequeue subgraph expressions in ascending
// Ĉ order and explore the subtree rooted at each.
func (m *Miner) mineSequential(ctx context.Context, queue []scored, targets []kb.EntID, bnd *bound, res *Result) {
	st := &res.Stats

	canSolve, timedOut := m.solvableSuffixes(ctx, queue, targets)
	if timedOut {
		st.TimedOut = true
		return
	}

	sc := getScratch()
	defer putScratch(sc)
	for i := range queue {
		if expired(ctx) {
			st.TimedOut = true
			break
		}
		// Line 8 of Algorithm 1: the exploration rooted at queue[i] conjoins
		// it with every later candidate; when even the full conjunction
		// cannot pin down T, neither this subtree nor any later one (their
		// floors are supersets) holds an RE.
		if !canSolve[i] {
			break
		}
		// Any expression prefixed with queue[i] costs at least queue[i].cost;
		// once that exceeds the incumbent, later prefixes cannot improve.
		if queue[i].cost >= bnd.Cost() {
			st.PrunedCost += uint64(len(queue) - i)
			break
		}
		if m.cfg.LiteralAlg2 {
			m.dfsRemiLiteral(ctx, queue, i, targets, sc, bnd, st)
			continue
		}
		// Room for a handful of conjuncts up front: the DFS extends the
		// prefix in place (append + reslice), so a roomy root buffer makes
		// typical descents allocation-free.
		prefix := append(make(expr.Expression, 0, 8), queue[i].g)
		m.dfsRemi(ctx, prefix, queue[i].cost, m.Ev.Bindings(queue[i].g), queue, i+1, targets, 0, sc, bnd, st)
	}
	res.Expression, _ = bnd.Get()
	res.Solutions = bnd.All()
}

// dfsRemi performs the depth-first exploration of conjunctions described in
// Section 3.3 (the tree of Figure 1): the children of a prefix extend it
// with strictly later queue elements. It applies pruning by depth (stop
// descending after an RE), side pruning (skip costlier siblings after an
// RE), the live cost bound shared with the other P-REMI workers (Algorithm
// 3, line 6), and redundant-conjunct pruning (a child whose subgraph
// expression does not shrink the binding set is dominated by a cheaper
// sibling chain). Bindings are threaded down the recursion so each node
// costs one set intersection instead of re-evaluating the conjunction; the
// child intersections are computed in adaptive windows by the batch kernel
// (bindset.IntersectMany) into the per-depth scratch batch of sc, so a node
// in steady state performs zero heap allocations. depth is the scratch
// level this node's children write to. It returns the cheapest RE cost
// discovered in this subtree and whether any RE was found.
func (m *Miner) dfsRemi(ctx context.Context, prefix expr.Expression, prefixCost float64, bindings bindset.Set,
	queue []scored, from int, targets []kb.EntID, depth int, sc *dfsScratch, bnd *bound, st *Stats) (float64, bool) {

	st.Visited++
	st.RETests++
	m.trace(bnd, EventVisit, prefix, prefixCost)
	// The RE test: bindings ⊇ T holds by construction (every queue element
	// is common to the targets), so exactness reduces to a size check; with
	// MaxExceptions > 0 up to that many extra entities are tolerated.
	if bindings.Card() <= len(targets)+m.cfg.MaxExceptions {
		m.trace(bnd, EventRE, prefix, prefixCost)
		if bnd.Offer(prefix, prefixCost) {
			m.trace(bnd, EventNewBest, prefix, prefixCost)
		}
		// Descendants only add cost: pruning by depth.
		st.PrunedDepth++
		return prefixCost, true
	}

	subtreeMin := math.Inf(1)
	found := false
	lvl := sc.batch(depth)
	i := from
	// The batch window is adaptive: it starts at one child and doubles each
	// time a full window is processed without a pruning break, so nodes
	// whose children die to side or cost pruning almost immediately never
	// pay for speculative intersections, while long sibling scans converge
	// to full-width word-at-a-time batches.
	win := 1
outer:
	for i < len(queue) {
		// Gather a window of children currently under the shared bound and
		// intersect the prefix bindings against all of them in one batch
		// kernel call (word-at-a-time for bitmap prefixes). The queue is
		// cost-ascending in the default configuration, so the window ends
		// exactly where cost pruning would stop the scan.
		bound := bnd.Cost()
		n := 0
		for n < win && i+n < len(queue) && prefixCost+queue[i+n].cost < bound {
			lvl.bind[n] = m.Ev.Bindings(queue[i+n].g)
			n++
		}
		if n == 0 {
			// This child and every later sibling meets or exceeds the
			// incumbent: cost pruning (the P-DFS-REMI backtracking rule).
			st.PrunedCost += uint64(len(queue) - i)
			if m.traceWants(EventPruneCost) {
				m.trace(bnd, EventPruneCost, append(prefix.Clone(), queue[i].g), prefixCost+queue[i].cost)
			}
			break
		}
		bindset.IntersectMany(lvl.ptrs[:n], bindings, lvl.bind[:n])
		for j := 0; j < n; j++ {
			idx := i + j
			if st.Visited%256 == 0 && expired(ctx) {
				st.TimedOut = true
				break outer
			}
			childCost := prefixCost + queue[idx].cost
			if childCost >= bnd.Cost() {
				// The bound improved mid-window: cost pruning, exactly where
				// the unbatched scan would have stopped.
				st.PrunedCost += uint64(len(queue) - idx)
				if m.traceWants(EventPruneCost) {
					m.trace(bnd, EventPruneCost, append(prefix.Clone(), queue[idx].g), childCost)
				}
				break outer
			}
			childBindings := lvl.ptrs[j]
			if childBindings.Card() == bindings.Card() {
				// The conjunct changed nothing: everything below this child
				// is dominated by the same expressions without it.
				continue
			}
			if childBindings.Card() < len(targets) {
				// Impossible: common candidates always retain T; defensive.
				continue
			}
			child := append(prefix, queue[idx].g)
			c, f := m.dfsRemi(ctx, child, childCost, *childBindings, queue, idx+1, targets, depth+1, sc, bnd, st)
			prefix = child[:len(prefix)]
			if f {
				found = true
				if c < subtreeMin {
					subtreeMin = c
				}
				// Side pruning: when the RE costs no more than the child
				// prefix itself (the child was the RE), every later sibling
				// — and everything below it — is at least as complex. With
				// TopK > 1 siblings may hold wanted alternatives, so only
				// the cost bound applies there.
				if c <= childCost && m.topK() == 1 {
					st.PrunedSide += uint64(len(queue) - idx - 1)
					m.trace(bnd, EventPruneSide, child, c)
					break outer
				}
			}
		}
		i += n
		if win < childBatch {
			win *= 2
		}
	}
	return subtreeMin, found
}

// dfsRemiLiteral is the verbatim Algorithm 2 of the paper: a single linear
// scan over the remaining queue with a stack, double-popping when an RE is
// found. It can return a slightly suboptimal RE in rare configurations (see
// DESIGN.md) and exists for ablation experiments. It reports whether any RE
// was found during the scan. The stack carries its binding sets
// incrementally — a push costs one scratch intersection with the new
// conjunct instead of re-evaluating the whole conjunction.
func (m *Miner) dfsRemiLiteral(ctx context.Context, queue []scored, rho int, targets []kb.EntID,
	sc *dfsScratch, bnd *bound, st *Stats) bool {

	var stack []scored
	cur := expr.Expression(nil)
	curCost := 0.0
	found := false
	var binds []bindset.Set // binds[d] = bindings of cur[:d+1]

	push := func(s scored) {
		stack = append(stack, s)
		cur = append(cur, s.g)
		curCost += s.cost
		d := len(stack) - 1
		gb := m.Ev.Bindings(s.g)
		if d == 0 {
			binds = append(binds, gb)
			return
		}
		lvl := sc.level(d)
		lvl.IntersectInto(binds[d-1], gb)
		binds = append(binds, *lvl)
	}
	pop := func() {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur = cur[:len(cur)-1]
		curCost -= s.cost
		binds = binds[:len(binds)-1]
	}

	for i := rho; i < len(queue); i++ {
		if expired(ctx) {
			st.TimedOut = true
			break
		}
		push(queue[i])
		st.Visited++
		st.RETests++
		m.trace(bnd, EventVisit, cur, curCost)
		if binds[len(binds)-1].Card() <= len(targets)+m.cfg.MaxExceptions {
			found = true
			m.trace(bnd, EventRE, cur, curCost)
			if bnd.Offer(cur, curCost) {
				m.trace(bnd, EventNewBest, cur, curCost)
			}
			pop() // pruning by depth
			st.PrunedDepth++
			if len(stack) == 0 {
				// The second pop of Algorithm 2 removes ⊤: exploration done.
				return found
			}
			pop() // side pruning
			st.PrunedSide++
		}
	}
	return found
}

func (m *Miner) topK() int {
	if m.cfg.TopK < 1 {
		return 1
	}
	return m.cfg.TopK
}

// traceWants reports whether a trace event of this kind would be delivered.
// Call sites that must allocate to build the traced expression (the prune
// events clone the prefix themselves) check it before paying that cost.
func (m *Miner) traceWants(kind EventKind) bool {
	return m.cfg.Trace != nil && m.cfg.TraceMask.Wants(kind)
}

func (m *Miner) trace(bnd *bound, kind EventKind, e expr.Expression, cost float64) {
	if !m.traceWants(kind) {
		return
	}
	m.cfg.Trace(Event{Kind: kind, Set: bnd.set, Expression: e.Clone(), Cost: cost})
}
