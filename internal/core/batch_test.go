package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/kb"
)

// batchFixtureSets builds a workload over the queueTestMiner KB shaped like
// the batch use case: overlapping candidate sets (shared minimum-id anchor),
// an exact repeat, a singleton and an empty set.
func batchFixtureSets(t *testing.T, m *Miner) [][]kb.EntID {
	t.Helper()
	ids := make([]kb.EntID, 0, 16)
	for i := 1; i <= 16; i++ {
		ids = append(ids, m.K.MustEntityID(fmt.Sprintf("http://q/e%d", i)))
	}
	ids = normalizeTargets(ids)
	if len(ids) < 13 {
		t.Fatalf("fixture KB lost entities: %d left", len(ids))
	}
	return [][]kb.EntID{
		{ids[0], ids[5]},
		{ids[0], ids[5], ids[9]}, // superset: shares the enumeration anchor
		{ids[0], ids[7]},         // sibling: same anchor, different rest
		{ids[5], ids[0]},         // repeat of set 0 in another order
		{},                       // per-set failure, must not fail the batch
		{ids[3]},
		{ids[3], ids[12]},
		{ids[1], ids[2]},
	}
}

// TestMineBatchGoldenEquivalence is the batch-vs-sequential golden contract:
// MineBatch over N sets must produce results identical — expressions, bits,
// alternatives, queue sizes — to N independent MineContext calls on fresh
// miners, for every pool width. Run with `go test -race -cpu 1,4,8` to
// exercise the GOMAXPROCS values the shared evaluator stripes key on.
func TestMineBatchGoldenEquivalence(t *testing.T) {
	ref, _ := queueTestMiner(t, 31)
	sets := batchFixtureSets(t, ref)

	type golden struct {
		found  bool
		expr   string
		bits   float64
		nsols  int
		ncands int
	}
	want := make([]*golden, len(sets))
	for i, set := range sets {
		if len(set) == 0 {
			continue
		}
		mm := NewMiner(ref.K, ref.Est, ref.cfg)
		res, err := mm.MineContext(context.Background(), set)
		if err != nil {
			t.Fatalf("sequential set %d: %v", i, err)
		}
		want[i] = &golden{
			found:  res.Found(),
			expr:   res.Expression.Format(ref.K),
			bits:   res.Bits,
			nsols:  len(res.Solutions),
			ncands: res.Stats.Candidates,
		}
	}

	for _, conc := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			m := NewMiner(ref.K, ref.Est, ref.cfg)
			outs := m.MineBatch(context.Background(), sets, conc)
			if len(outs) != len(sets) {
				t.Fatalf("got %d outcomes for %d sets", len(outs), len(sets))
			}
			for i, o := range outs {
				if want[i] == nil {
					if !errors.Is(o.Err, ErrNoTargets) {
						t.Fatalf("set %d: err = %v, want ErrNoTargets", i, o.Err)
					}
					continue
				}
				if o.Err != nil {
					t.Fatalf("set %d: unexpected error %v", i, o.Err)
				}
				res := o.Result
				if res.Found() != want[i].found {
					t.Fatalf("set %d: found = %v, want %v", i, res.Found(), want[i].found)
				}
				if got := res.Expression.Format(ref.K); got != want[i].expr {
					t.Fatalf("set %d: expression %q, want %q", i, got, want[i].expr)
				}
				if res.Found() && res.Bits != want[i].bits {
					t.Fatalf("set %d: bits %v, want %v", i, res.Bits, want[i].bits)
				}
				if len(res.Solutions) != want[i].nsols {
					t.Fatalf("set %d: %d solutions, want %d", i, len(res.Solutions), want[i].nsols)
				}
				if res.Stats.Candidates != want[i].ncands {
					t.Fatalf("set %d: %d candidates, want %d", i, res.Stats.Candidates, want[i].ncands)
				}
			}
			// The repeat (set 3) must share set 0's search, not rerun it.
			if outs[3].Result != outs[0].Result || !outs[3].Deduplicated {
				t.Fatalf("repeated set not deduplicated: %+v", outs[3])
			}
			if outs[0].Deduplicated {
				t.Fatal("first occurrence marked deduplicated")
			}
		})
	}
}

// TestMineBatchSharesQueueWork white-boxes the batch cache: sets sharing
// their first target must reuse its scored anchor list (skipping
// enumeration, scoring and the sort), an identical set must reuse the
// finished queue — and the shared path must still produce the exact queue
// the unshared build computes.
func TestMineBatchSharesQueueWork(t *testing.T) {
	m, _ := queueTestMiner(t, 37)
	sets := batchFixtureSets(t, m)

	bc := newBatchCache()
	for _, set := range sets {
		if len(set) == 0 {
			continue
		}
		if _, err := m.mineSet(context.Background(), 0, normalizeTargets(set), bc); err != nil {
			t.Fatal(err)
		}
	}
	anchorHits, queueHits := bc.hits()
	// Sets 1 and 2 share set 0's anchor; set 6 shares set 5's.
	if anchorHits < 3 {
		t.Fatalf("anchor-list hits = %d, want >= 3", anchorHits)
	}
	// Set 3 repeats set 0 exactly.
	if queueHits < 1 {
		t.Fatalf("queue hits = %d, want >= 1", queueHits)
	}

	// Cached queues must be byte-identical to the unshared build.
	for i, set := range sets {
		if len(set) == 0 {
			continue
		}
		tgt := normalizeTargets(set)
		cached, ok := bc.getQueue(tgt)
		if !ok {
			t.Fatalf("set %d: no cached queue", i)
		}
		plain, timedOut := m.buildQueue(context.Background(), tgt, &queueBufs{})
		if timedOut {
			t.Fatalf("set %d: unshared build timed out", i)
		}
		if len(cached) != len(plain) {
			t.Fatalf("set %d: cached queue len %d, unshared %d", i, len(cached), len(plain))
		}
		for j := range cached {
			if cached[j].g != plain[j].g || cached[j].cost != plain[j].cost {
				t.Fatalf("set %d: queue[%d] differs between cached and unshared build", i, j)
			}
		}
	}
}

// TestMineBatchPerSetTimeout: Config.Timeout budgets each set separately —
// a timed-out set reports TimedOut in its own stats without erroring the
// batch or its neighbors.
func TestMineBatchPerSetTimeout(t *testing.T) {
	m, _ := queueTestMiner(t, 41)
	cfg := m.cfg
	cfg.Timeout = time.Nanosecond
	mm := NewMiner(m.K, m.Est, cfg)
	sets := batchFixtureSets(t, m)
	outs := mm.MineBatch(context.Background(), sets, 2)
	for i, o := range outs {
		if len(sets[i]) == 0 {
			if !errors.Is(o.Err, ErrNoTargets) {
				t.Fatalf("set %d: err = %v, want ErrNoTargets", i, o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("set %d: err = %v, want partial result", i, o.Err)
		}
		if !o.Result.Stats.TimedOut {
			t.Fatalf("set %d: 1ns budget did not time out", i)
		}
	}
}

// TestMineBatchCancelledContext: cancelling the batch context stops every
// set; outcomes are partial results flagged TimedOut, mirroring MineContext.
func TestMineBatchCancelledContext(t *testing.T) {
	m, _ := queueTestMiner(t, 43)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := batchFixtureSets(t, m)
	outs := m.MineBatch(ctx, sets, 4)
	for i, o := range outs {
		if len(sets[i]) == 0 {
			continue
		}
		if o.Err != nil {
			t.Fatalf("set %d: err = %v", i, o.Err)
		}
		if !o.Result.Stats.TimedOut {
			t.Fatalf("set %d: cancelled batch did not mark TimedOut", i)
		}
	}
}

// TestMineBatchPerSetCacheCounters: per-set cache stats are deltas of the
// shared evaluator's counters, not cumulative snapshots — across a serial
// batch they partition the evaluator totals exactly, so a server summing
// them per run cannot overcount.
func TestMineBatchPerSetCacheCounters(t *testing.T) {
	m, _ := queueTestMiner(t, 53)
	sets := batchFixtureSets(t, m)
	outs := m.MineBatch(context.Background(), sets, 1)
	_, hits, misses := m.Ev.Stats()
	var sumHits, sumMisses uint64
	seen := make(map[*Result]bool)
	for i, o := range outs {
		if o.Err != nil || seen[o.Result] {
			continue
		}
		seen[o.Result] = true
		st := o.Result.Stats
		if st.CacheHits > hits || st.CacheMisses > misses {
			t.Fatalf("set %d reports more cache traffic (%d/%d) than the whole evaluator (%d/%d)",
				i, st.CacheHits, st.CacheMisses, hits, misses)
		}
		sumHits += st.CacheHits
		sumMisses += st.CacheMisses
	}
	if sumHits != hits || sumMisses != misses {
		t.Fatalf("per-set cache counters sum to %d/%d, evaluator reports %d/%d",
			sumHits, sumMisses, hits, misses)
	}
	if misses == 0 {
		t.Fatal("fixture exercised no cache misses")
	}
}

// TestMineBatchPanicIsolation: a panic inside a batch worker (here forced
// with a nil estimator, which the queue scoring dereferences) becomes an
// ErrMinePanic outcome on each affected set instead of killing the process
// — MineBatch's pool goroutines are the one mining path with no recovery
// above them. Recovery is per job, so a panicking set cannot take its
// batch neighbors down either.
func TestMineBatchPanicIsolation(t *testing.T) {
	m, _ := queueTestMiner(t, 59)
	sets := batchFixtureSets(t, m)
	mm := NewMiner(m.K, nil, m.cfg)
	outs := mm.MineBatch(context.Background(), sets, 2)
	for i, o := range outs {
		if len(sets[i]) == 0 {
			if !errors.Is(o.Err, ErrNoTargets) {
				t.Fatalf("empty set %d: err = %v", i, o.Err)
			}
			continue
		}
		if !errors.Is(o.Err, ErrMinePanic) {
			t.Fatalf("set %d: err = %v, want ErrMinePanic", i, o.Err)
		}
	}
}

// TestMineBatchEachStreams: the per-set callback fires exactly once per
// slot, serialized, with the same outcome the returned slice reports — the
// contract streaming handlers rely on to push entries while the batch still
// runs. In-batch repeats must arrive back-to-back after their original.
func TestMineBatchEachStreams(t *testing.T) {
	m, _ := queueTestMiner(t, 61)
	sets := batchFixtureSets(t, m)
	for _, conc := range []int{1, 4} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			mm := NewMiner(m.K, m.Est, m.cfg)
			var order []int
			got := make(map[int]BatchOutcome)
			outs := mm.MineBatchEach(context.Background(), sets, conc, func(slot int, o BatchOutcome) {
				// Serialized delivery: plain map/slice writes must be safe.
				if _, dup := got[slot]; dup {
					t.Errorf("slot %d delivered twice", slot)
				}
				got[slot] = o
				order = append(order, slot)
			})
			if len(got) != len(sets) {
				t.Fatalf("callback fired for %d slots, want %d", len(got), len(sets))
			}
			for i, o := range outs {
				if got[i] != o {
					t.Fatalf("slot %d: callback outcome %+v != returned %+v", i, got[i], o)
				}
			}
			// Set 3 repeats set 0: its delivery must directly follow set 0's.
			for pos, slot := range order {
				if slot == 0 {
					if pos+1 >= len(order) || order[pos+1] != 3 {
						t.Fatalf("repeat slot 3 not delivered right after slot 0: order %v", order)
					}
				}
			}
			if !got[3].Deduplicated || got[3].Result != got[0].Result {
				t.Fatalf("repeat slot not shared: %+v", got[3])
			}
		})
	}
}

// TestMineBatchEmpty covers the zero-set batch.
func TestMineBatchEmpty(t *testing.T) {
	m, _ := queueTestMiner(t, 47)
	if outs := m.MineBatch(context.Background(), nil, 4); len(outs) != 0 {
		t.Fatalf("got %d outcomes for an empty batch", len(outs))
	}
}
