package remi

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestMineBatchFacade: MineBatch entries are identical to per-set
// MineContext calls, failures stay per-set, and in-batch repeats are
// flagged and share the converted result.
func TestMineBatchFacade(t *testing.T) {
	sys := tinySystem(t)
	sets := [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Paris"},
		{tinyNS + "Nantes", tinyNS + "Rennes"}, // repeat of set 0, reordered
		{tinyNS + "Nowhere"},                   // unknown entity: per-set error
		{},                                     // empty: per-set error
		{tinyNS + "Lyon", tinyNS + "Marseille"},
	}
	br, err := sys.MineBatch(context.Background(), sets, WithBatchConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Entries) != len(sets) {
		t.Fatalf("%d entries for %d sets", len(br.Entries), len(sets))
	}
	for i, set := range sets {
		e := br.Entries[i]
		switch i {
		case 3:
			if !errors.Is(e.Err, ErrUnknownEntity) {
				t.Fatalf("set %d: err = %v, want ErrUnknownEntity", i, e.Err)
			}
			continue
		case 4:
			if !errors.Is(e.Err, ErrEmptyTargetSet) {
				t.Fatalf("set %d: err = %v, want ErrEmptyTargetSet", i, e.Err)
			}
			continue
		}
		if e.Err != nil {
			t.Fatalf("set %d: unexpected error %v", i, e.Err)
		}
		want, err := sys.MineContext(context.Background(), set)
		if err != nil {
			t.Fatalf("sequential set %d: %v", i, err)
		}
		if e.Result.Found != want.Found {
			t.Fatalf("set %d: found %v, want %v", i, e.Result.Found, want.Found)
		}
		if e.Result.Expression != want.Expression || e.Result.Bits != want.Bits ||
			e.Result.NL != want.NL || e.Result.SPARQL != want.SPARQL {
			t.Fatalf("set %d: batch solution %+v differs from sequential %+v",
				i, e.Result.Solution, want.Solution)
		}
	}
	if !br.Entries[2].Deduplicated || br.Deduped != 1 {
		t.Fatalf("repeat not deduplicated: entry=%+v deduped=%d", br.Entries[2], br.Deduped)
	}
	if br.Entries[2].Result != br.Entries[0].Result {
		t.Fatal("repeated set did not share the converted result")
	}
	if br.QueueBuild <= 0 {
		t.Fatalf("batch queue-build total not recorded: %v", br.QueueBuild)
	}
}

// TestMineBatchEachFacade: the streaming variant delivers every entry
// exactly once, invalid sets first, and the streamed entries are the same
// values the returned BatchResult holds.
func TestMineBatchEachFacade(t *testing.T) {
	sys := tinySystem(t)
	sets := [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Nowhere"}, // unknown entity: delivered before mining
		{tinyNS + "Paris"},
		{tinyNS + "Nantes", tinyNS + "Rennes"}, // repeat of set 0
	}
	var order []int
	got := make(map[int]BatchEntry)
	br, err := sys.MineBatchEach(context.Background(), sets, func(i int, e BatchEntry) {
		if _, dup := got[i]; dup {
			t.Errorf("set %d delivered twice", i)
		}
		got[i] = e
		order = append(order, i)
	}, WithBatchConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sets) {
		t.Fatalf("callback fired for %d sets, want %d", len(got), len(sets))
	}
	if len(order) == 0 || order[0] != 1 {
		t.Fatalf("invalid set not delivered first: order %v", order)
	}
	if !errors.Is(got[1].Err, ErrUnknownEntity) {
		t.Fatalf("set 1: err = %v, want ErrUnknownEntity", got[1].Err)
	}
	for i, e := range br.Entries {
		g := got[i]
		if (g.Err == nil) != (e.Err == nil) || g.Result != e.Result || g.Deduplicated != e.Deduplicated {
			t.Fatalf("set %d: streamed entry %+v differs from returned %+v", i, g, e)
		}
	}
	if !br.Entries[3].Deduplicated || br.Entries[3].Result != br.Entries[0].Result {
		t.Fatalf("repeat not shared: %+v", br.Entries[3])
	}
}

// TestWithProgress: a progress subscriber receives each incumbent
// improvement, ending on the returned solution, without altering the result.
func TestWithProgress(t *testing.T) {
	sys := tinySystem(t)
	targets := []string{tinyNS + "Rennes", tinyNS + "Nantes"}
	want, err := sys.Mine(targets)
	if err != nil {
		t.Fatal(err)
	}
	var progress []Progress
	res, err := sys.Mine(targets, WithProgress(func(p Progress) { progress = append(progress, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Expression != want.Expression || res.Bits != want.Bits {
		t.Fatalf("WithProgress changed the result: %q (%v bits), want %q (%v bits)",
			res.Expression, res.Bits, want.Expression, want.Bits)
	}
	if len(progress) == 0 {
		t.Fatal("no progress events delivered")
	}
	last := progress[len(progress)-1]
	if last.Kind != "new_best" || last.Expression != res.Expression || last.Bits != res.Bits {
		t.Fatalf("final progress event %+v does not match the solution %q (%v bits)",
			last, res.Expression, res.Bits)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i].Bits >= progress[i-1].Bits {
			t.Fatalf("incumbent did not improve monotonically: %v then %v bits",
				progress[i-1].Bits, progress[i].Bits)
		}
	}
}

// TestWithProgressSetIndex: within MineBatch every progress event names
// the set whose search produced it, and each set's last event is that
// set's solution.
func TestWithProgressSetIndex(t *testing.T) {
	sys := tinySystem(t)
	sets := [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Paris"},
	}
	var mu sync.Mutex // sets run concurrently and share the callback
	last := make(map[int]Progress)
	br, err := sys.MineBatch(context.Background(), sets, WithBatchConcurrency(2),
		WithProgress(func(p Progress) {
			mu.Lock()
			last[p.Set] = p
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != len(sets) {
		t.Fatalf("progress reached sets %v, want all %d", last, len(sets))
	}
	for i, e := range br.Entries {
		if e.Err != nil {
			t.Fatalf("set %d: %v", i, e.Err)
		}
		if p := last[i]; p.Expression != e.Result.Expression || p.Bits != e.Result.Bits {
			t.Fatalf("set %d: last progress %+v, solution %q (%v bits)", i, p, e.Result.Expression, e.Result.Bits)
		}
	}
}

// TestMineBatchFacadeBadOptions: invalid options fail the whole batch, not
// per set (there is nothing per-set about them).
func TestMineBatchFacadeBadOptions(t *testing.T) {
	sys := tinySystem(t)
	_, err := sys.MineBatch(context.Background(), [][]string{{tinyNS + "Paris"}}, WithMetric(MetricCustom))
	if err == nil {
		t.Fatal("MetricCustom without SetProminence accepted")
	}
}
