package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	remi "github.com/remi-kb/remi"
)

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, h http.Handler, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, rec.Code, rec.Body.String())
		}
		jr := decode[JobResponse](t, rec)
		switch jr.State {
		case "done", "failed", "cancelled":
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, jr.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// parseNDJSON decodes a streamed NDJSON body into its events.
func parseNDJSON(t *testing.T, rec *httptest.ResponseRecorder) []StreamEvent {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type %q, want application/x-ndjson", ct)
	}
	var evs []StreamEvent
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		t.Fatal("empty stream")
	}
	return evs
}

// expressionsOf flattens a response's solution and alternatives for
// order-sensitive equivalence checks.
func expressionsOf(r *MineResponse) []string {
	var out []string
	if r.Solution != nil {
		out = append(out, r.Solution.Expression)
	}
	for _, a := range r.Alternatives {
		out = append(out, a.Expression)
	}
	return out
}

// sameMineOutcome asserts two responses describe the same mining outcome:
// same found flag, same expressions in the same order, same exceptions
// (stats and serving flags are allowed to differ).
func sameMineOutcome(t *testing.T, label string, got, want *MineResponse) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: response presence differs: got %v, want %v", label, got, want)
	}
	if got == nil {
		return
	}
	if got.Found != want.Found {
		t.Fatalf("%s: found=%v, want %v", label, got.Found, want.Found)
	}
	if gx, wx := expressionsOf(got), expressionsOf(want); !reflect.DeepEqual(gx, wx) {
		t.Fatalf("%s: expressions %v, want %v", label, gx, wx)
	}
	if !reflect.DeepEqual(got.Exceptions, want.Exceptions) {
		t.Fatalf("%s: exceptions %v, want %v", label, got.Exceptions, want.Exceptions)
	}
}

// TestBatchJoinsSingleFlight is the unified-namespace regression test: a
// batch entry joins a single /v1/mine run already in flight — and a single
// request joins an in-flight batch member — so one evaluator pass serves
// both callers in either direction.
func TestBatchJoinsSingleFlight(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	releaseMine := make(chan struct{})
	releaseBatch := make(chan struct{})
	var mineCalls, batchCalls atomic.Int32
	realMine := s.sys().MineContext
	// Direction 1 mines targetsA for the single request, direction 2 mines
	// targetsB for the batch: each run counts against its owner.
	targetsA := []string{tinyNS + "Rennes", tinyNS + "Nantes"}
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		if len(targets) == len(targetsA) {
			mineCalls.Add(1)
			<-releaseMine
		} else {
			batchCalls.Add(1)
			<-releaseBatch
		}
		return realMine(ctx, targets, opts...)
	})
	h := s.Handler()

	// Direction 1: the single request runs, the batch entry joins it.
	keyA := flightKeyOf(t, s, MineRequest{Targets: targetsA})
	var singleA, batchA *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); singleA = postJSON(t, h, "/v1/mine", MineRequest{Targets: targetsA}) }()
	waitFor(t, func() bool {
		j, ok := s.jobs.Lookup(keyA)
		return ok && j.Refs() == 1
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		batchA = postJSON(t, h, "/v1/mine:batch", BatchMineRequest{Sets: [][]string{targetsA}})
	}()
	waitFor(t, func() bool {
		j, ok := s.jobs.Lookup(keyA)
		return ok && j.Refs() == 2
	})
	close(releaseMine)
	wg.Wait()

	if got := mineCalls.Load(); got != 1 {
		t.Fatalf("direction 1: %d mining runs, want 1 shared pass", got)
	}
	if got := batchCalls.Load(); got != 0 {
		t.Fatalf("direction 1: the joined batch entry started %d batch passes", got)
	}
	single := decode[MineResponse](t, singleA)
	if !single.Found || single.Deduplicated {
		t.Fatalf("single response wrong: %+v", single)
	}
	batch := decode[BatchMineResponse](t, batchA)
	if len(batch.Results) != 1 || batch.Results[0].Response == nil {
		t.Fatalf("batch response wrong: %s", batchA.Body.String())
	}
	if !batch.Results[0].Response.Deduplicated {
		t.Fatal("batch entry did not report joining the in-flight single run")
	}
	if batch.Stats.Deduplicated != 1 || batch.Stats.Mined != 0 {
		t.Fatalf("batch stats %+v, want 1 deduplicated / 0 mined", batch.Stats)
	}
	sameMineOutcome(t, "joined batch entry", batch.Results[0].Response, &single)

	// Direction 2: the batch member runs, the single request joins it.
	targetsB := []string{tinyNS + "Paris"}
	keyB := flightKeyOf(t, s, MineRequest{Targets: targetsB})
	var singleB, batchB *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		batchB = postJSON(t, h, "/v1/mine:batch", BatchMineRequest{Sets: [][]string{targetsB}})
	}()
	waitFor(t, func() bool {
		j, ok := s.jobs.Lookup(keyB)
		return ok && j.Refs() == 1
	})
	wg.Add(1)
	go func() { defer wg.Done(); singleB = postJSON(t, h, "/v1/mine", MineRequest{Targets: targetsB}) }()
	waitFor(t, func() bool {
		j, ok := s.jobs.Lookup(keyB)
		return ok && j.Refs() == 2
	})
	close(releaseBatch)
	wg.Wait()

	if got := batchCalls.Load(); got != 1 {
		t.Fatalf("direction 2: %d batch passes, want 1", got)
	}
	if got := mineCalls.Load(); got != 1 {
		t.Fatalf("direction 2: the joined single started a mining run (total %d)", got)
	}
	singleJoined := decode[MineResponse](t, singleB)
	if !singleJoined.Deduplicated {
		t.Fatal("single request did not report joining the in-flight batch member")
	}
	batchOwn := decode[BatchMineResponse](t, batchB)
	if batchOwn.Stats.Mined != 1 || batchOwn.Results[0].Response == nil {
		t.Fatalf("owning batch wrong: %s", batchB.Body.String())
	}
	sameMineOutcome(t, "joined single", &singleJoined, batchOwn.Results[0].Response)

	// Both joins are visible in the registry counters.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	st := decode[StatsResponse](t, rec)
	if st.Jobs == nil || st.Jobs.Joined != 2 {
		t.Fatalf("jobs stats = %+v, want 2 joins", st.Jobs)
	}
	if st.Mining.DedupedHits != 2 {
		t.Fatalf("deduped hits = %d, want 2", st.Mining.DedupedHits)
	}
}

// TestAsyncSinglePollGolden: submit-then-poll yields exactly the result the
// blocking endpoint answers for the same query.
func TestAsyncSinglePollGolden(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	h := s.Handler()
	q := MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}, TopK: 3}
	blocking := decode[MineResponse](t, postJSON(t, h, "/v1/mine", q))
	if !blocking.Found {
		t.Fatal("blocking mine found nothing")
	}

	rec := postJSON(t, h, "/v1/mine:async", AsyncMineRequest{Targets: q.Targets, TopK: 3})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", rec.Code, rec.Body.String())
	}
	sub := decode[JobResponse](t, rec)
	if sub.ID == "" || sub.Kind != "mine" || sub.KB != DefaultKBName {
		t.Fatalf("bad submission document: %+v", sub)
	}
	jr := pollJob(t, h, sub.ID)
	if jr.State != "done" || jr.Error != "" {
		t.Fatalf("job ended %q (%s)", jr.State, jr.Error)
	}
	if jr.FinishedUnixNS == 0 || jr.StartedUnixNS == 0 {
		t.Fatalf("missing lifecycle timestamps: %+v", jr)
	}
	sameMineOutcome(t, "async+poll vs blocking", jr.Result, &blocking)
}

// asyncGoldenSets is a batch workload exercising every entry disposition:
// mined, repeated (deduplicated), invalid and unknown-entity sets.
func asyncGoldenSets() [][]string {
	return [][]string{
		{tinyNS + "Rennes", tinyNS + "Nantes"},
		{tinyNS + "Paris"},
		{tinyNS + "Nantes", tinyNS + "Rennes"}, // repeat of set 0 modulo order
		{},                                     // invalid: empty set
		{tinyNS + "Nowhere"},                   // unknown entity
	}
}

// sameBatchItems asserts two batch answers agree per index: same error text
// and status, same mining outcome, same dedup flags.
func sameBatchItems(t *testing.T, label string, got, want []BatchMineItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Error != w.Error || g.Status != w.Status {
			t.Fatalf("%s[%d]: error %q/%d, want %q/%d", label, i, g.Error, g.Status, w.Error, w.Status)
		}
		sameMineOutcome(t, label+"["+strconv.Itoa(i)+"]", g.Response, w.Response)
		if g.Response != nil && g.Response.Deduplicated != w.Response.Deduplicated {
			t.Fatalf("%s[%d]: deduplicated=%v, want %v", label, i, g.Response.Deduplicated, w.Response.Deduplicated)
		}
	}
}

// TestAsyncBatchPollGolden: an async batch polled to completion carries the
// same per-set answers as the blocking batch endpoint.
func TestAsyncBatchPollGolden(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	h := s.Handler()
	sets := asyncGoldenSets()
	blocking := decode[BatchMineResponse](t, postJSON(t, h, "/v1/mine:batch", BatchMineRequest{Sets: sets}))
	if blocking.Stats.Mined != 2 || blocking.Stats.Deduplicated != 1 || blocking.Stats.Errors != 2 {
		t.Fatalf("unexpected blocking batch stats: %+v", blocking.Stats)
	}

	rec := postJSON(t, h, "/v1/mine:async", AsyncMineRequest{Sets: sets})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", rec.Code, rec.Body.String())
	}
	sub := decode[JobResponse](t, rec)
	if sub.Kind != "mine_batch" {
		t.Fatalf("kind %q, want mine_batch", sub.Kind)
	}
	jr := pollJob(t, h, sub.ID)
	if jr.State != "done" || jr.Batch == nil {
		t.Fatalf("job ended %q without a batch document (%s)", jr.State, jr.Error)
	}
	sameBatchItems(t, "async batch", jr.Batch.Results, blocking.Results)
	if jr.Batch.Stats.Mined != blocking.Stats.Mined ||
		jr.Batch.Stats.Deduplicated != blocking.Stats.Deduplicated ||
		jr.Batch.Stats.Errors != blocking.Stats.Errors {
		t.Fatalf("async stats %+v, blocking %+v", jr.Batch.Stats, blocking.Stats)
	}
}

// TestMineStreamSingleGolden: the single-set stream emits progress events
// while the search runs and ends with the exact blocking result, over both
// NDJSON (default) and SSE (Accept-negotiated) framings.
func TestMineStreamSingleGolden(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	h := s.Handler()
	q := MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}}
	blocking := decode[MineResponse](t, postJSON(t, h, "/v1/mine", q))
	if !blocking.Found {
		t.Fatal("blocking mine found nothing")
	}

	rec := postJSON(t, h, "/v1/mine:stream", AsyncMineRequest{Targets: q.Targets})
	evs := parseNDJSON(t, rec)
	last := evs[len(evs)-1]
	if last.Event != streamResult {
		t.Fatalf("last event %q, want result (events: %d)", last.Event, len(evs))
	}
	sameMineOutcome(t, "streamed result", last.Response, &blocking)
	progress := 0
	for _, ev := range evs[:len(evs)-1] {
		if ev.Event != streamProgress {
			t.Fatalf("unexpected event %q before the result", ev.Event)
		}
		if ev.Kind != "new_best" || ev.Expression == "" {
			t.Fatalf("malformed progress event: %+v", ev)
		}
		progress++
	}
	if progress == 0 {
		t.Fatal("found a solution but streamed no progress events")
	}
	// The last incumbent the search reported is the solution it returned.
	if got := evs[len(evs)-2].Expression; got != blocking.Solution.Expression {
		t.Fatalf("last progress %q, final solution %q", got, blocking.Solution.Expression)
	}

	// SSE framing: same events, text/event-stream framing.
	buf, _ := json.Marshal(AsyncMineRequest{Targets: q.Targets})
	req := httptest.NewRequest("POST", "/v1/mine:stream", strings.NewReader(string(buf)))
	req.Header.Set("Accept", "text/event-stream")
	sseRec := httptest.NewRecorder()
	h.ServeHTTP(sseRec, req)
	if sseRec.Code != http.StatusOK {
		t.Fatalf("sse status %d: %s", sseRec.Code, sseRec.Body.String())
	}
	if ct := sseRec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse Content-Type %q", ct)
	}
	var sseEvs []StreamEvent
	for _, line := range strings.Split(sseRec.Body.String(), "\n") {
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", payload, err)
		}
		sseEvs = append(sseEvs, ev)
	}
	if len(sseEvs) == 0 || sseEvs[len(sseEvs)-1].Event != streamResult {
		t.Fatalf("sse stream malformed: %d events", len(sseEvs))
	}
	sameMineOutcome(t, "sse result", sseEvs[len(sseEvs)-1].Response, &blocking)
}

// TestMineStreamJoinsBatchMember: a single stream that joins a batch
// member already in flight follows that member's progress events and ends
// with the golden result, flagged as deduplicated.
func TestMineStreamJoinsBatchMember(t *testing.T) {
	targets := []string{tinyNS + "Rennes", tinyNS + "Nantes"}
	golden := decode[MineResponse](t, postJSON(t, tinyServer(t, Options{DefaultTimeout: 10 * time.Second}).Handler(),
		"/v1/mine", MineRequest{Targets: targets}))

	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	release := make(chan struct{})
	realBatch := s.sys().MineBatchEach
	s.mineBatchEach = func(ctx context.Context, sets [][]string, each func(int, remi.BatchEntry), opts ...remi.MineOption) (*remi.BatchResult, error) {
		<-release
		return realBatch(ctx, sets, each, opts...)
	}
	h := s.Handler()
	key := flightKeyOf(t, s, MineRequest{Targets: targets})
	var batchRec, streamRec *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batchRec = postJSON(t, h, "/v1/mine:batch", BatchMineRequest{Sets: [][]string{targets}})
	}()
	waitFor(t, func() bool {
		j, ok := s.jobs.Lookup(key)
		return ok && j.Refs() == 1
	})
	go func() {
		defer wg.Done()
		streamRec = postJSON(t, h, "/v1/mine:stream", AsyncMineRequest{Targets: targets})
	}()
	waitFor(t, func() bool {
		j, ok := s.jobs.Lookup(key)
		return ok && j.Refs() == 2
	})
	close(release)
	wg.Wait()

	evs := parseNDJSON(t, streamRec)
	last := evs[len(evs)-1]
	if last.Event != streamResult || last.Response == nil {
		t.Fatalf("last event %+v, want a result", last)
	}
	if !last.Response.Deduplicated {
		t.Fatal("stream did not join the in-flight batch member")
	}
	progress := 0
	for _, ev := range evs[:len(evs)-1] {
		if ev.Event != streamProgress || ev.Kind != "new_best" || ev.Expression == "" {
			t.Fatalf("unexpected event before the result: %+v", ev)
		}
		progress++
	}
	if progress == 0 {
		t.Fatal("joined stream received no progress events")
	}
	sameMineOutcome(t, "joined stream", last.Response, &golden)
	if br := decode[BatchMineResponse](t, batchRec); br.Stats.Mined != 1 {
		t.Fatalf("owning batch stats %+v, want 1 mined", br.Stats)
	}
}

// TestMineStreamBatchGolden: the batch stream emits one entry event per
// input set — each index exactly once — carrying the same answers as the
// blocking batch endpoint, then a done event with matching aggregates.
func TestMineStreamBatchGolden(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	h := s.Handler()
	sets := asyncGoldenSets()
	blocking := decode[BatchMineResponse](t, postJSON(t, h, "/v1/mine:batch", BatchMineRequest{Sets: sets}))

	rec := postJSON(t, h, "/v1/mine:stream", AsyncMineRequest{Sets: sets})
	evs := parseNDJSON(t, rec)
	last := evs[len(evs)-1]
	if last.Event != streamDone || last.Stats == nil || last.KB != DefaultKBName {
		t.Fatalf("last event %+v, want done with stats", last)
	}
	streamed := make([]BatchMineItem, len(sets))
	seen := make([]bool, len(sets))
	for _, ev := range evs[:len(evs)-1] {
		if ev.Event != streamEntry || ev.Index == nil {
			t.Fatalf("unexpected event before done: %+v", ev)
		}
		i := *ev.Index
		if i < 0 || i >= len(sets) || seen[i] {
			t.Fatalf("entry index %d out of range or repeated", i)
		}
		seen[i] = true
		streamed[i] = BatchMineItem{Response: ev.Response, Error: ev.Error, Status: ev.Status}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("set %d never streamed", i)
		}
	}
	sameBatchItems(t, "streamed batch", streamed, blocking.Results)
	if last.Stats.Sets != blocking.Stats.Sets || last.Stats.Mined != blocking.Stats.Mined ||
		last.Stats.Deduplicated != blocking.Stats.Deduplicated || last.Stats.Errors != blocking.Stats.Errors {
		t.Fatalf("done stats %+v, blocking %+v", last.Stats, blocking.Stats)
	}
}

// TestMineSaturationShedsLoad: with the pool and queue full, further
// submissions answer 429 with a Retry-After hint, and the shed requests are
// visible in /v1/stats.
func TestMineSaturationShedsLoad(t *testing.T) {
	s := tinyServer(t, Options{JobWorkers: 1, JobQueueDepth: 1, ResultCache: -1})
	release := make(chan struct{})
	real := s.sys().MineContext
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return real(ctx, targets, opts...)
	})
	h := s.Handler()

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs[0] = postJSON(t, h, "/v1/mine", MineRequest{Targets: []string{tinyNS + "Rennes"}})
	}()
	waitFor(t, func() bool { return s.jobs.Snapshot().Running == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs[1] = postJSON(t, h, "/v1/mine", MineRequest{Targets: []string{tinyNS + "Nantes"}})
	}()
	waitFor(t, func() bool { return s.jobs.Snapshot().Queued == 1 })

	// Worker busy, queue full: the third distinct query is shed.
	rec := postJSON(t, h, "/v1/mine", MineRequest{Targets: []string{tinyNS + "Paris"}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, httptest.NewRequest("GET", "/v1/stats", nil))
	st := decode[StatsResponse](t, srec)
	if st.Jobs == nil {
		t.Fatal("stats missing the jobs section")
	}
	if st.Jobs.Workers != 1 || st.Jobs.QueueCapacity != 1 {
		t.Fatalf("pool shape %+v, want 1 worker / queue 1", st.Jobs)
	}
	if st.Jobs.Running != 1 || st.Jobs.Queued != 1 || st.Jobs.Rejected != 1 {
		t.Fatalf("jobs stats %+v, want running=1 queued=1 rejected=1", st.Jobs)
	}

	close(release)
	wg.Wait()
	for i, r := range recs {
		if r.Code != http.StatusOK {
			t.Fatalf("request %d: status %d after release: %s", i, r.Code, r.Body.String())
		}
	}
}

// TestJobCancelLifecycle drives DELETE /v1/jobs/{id} through every
// disposition: cancelling a queued job, a running job, double-cancelling
// (idempotent 200), and cancelling a finished job (409).
func TestJobCancelLifecycle(t *testing.T) {
	s := tinyServer(t, Options{JobWorkers: 1, ResultCache: -1})
	release := make(chan struct{})
	real := s.sys().MineContext
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return real(ctx, targets, opts...)
	})
	h := s.Handler()

	submit := func(target string) string {
		rec := postJSON(t, h, "/v1/mine:async", AsyncMineRequest{Targets: []string{tinyNS + target}})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		return decode[JobResponse](t, rec).ID
	}
	del := func(id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/jobs/"+id, nil))
		return rec
	}

	idA := submit("Rennes")
	waitFor(t, func() bool { return s.jobs.Snapshot().Running == 1 })
	idB := submit("Nantes") // the single worker is held: B queues

	// Cancel the queued job: it never runs.
	rec := del(idB)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel queued: status %d: %s", rec.Code, rec.Body.String())
	}
	jb := decode[JobResponse](t, rec)
	if jb.State != "cancelled" || jb.Status != http.StatusConflict || jb.Error == "" {
		t.Fatalf("cancelled job document: %+v", jb)
	}
	// Double-cancel is idempotent.
	if rec := del(idB); rec.Code != http.StatusOK {
		t.Fatalf("double cancel: status %d: %s", rec.Code, rec.Body.String())
	}
	// Cancel the running job: its context ends, the run's partial return is
	// discarded, and the job is terminally cancelled.
	if rec := del(idA); rec.Code != http.StatusOK {
		t.Fatalf("cancel running: status %d: %s", rec.Code, rec.Body.String())
	}
	if jr := pollJob(t, h, idA); jr.State != "cancelled" {
		t.Fatalf("running job ended %q, want cancelled", jr.State)
	}
	waitFor(t, func() bool {
		snap := s.jobs.Snapshot()
		return snap.Running == 0 && snap.Queued == 0
	})

	// A finished job is past cancelling: 409.
	close(release)
	idC := submit("Paris")
	if jr := pollJob(t, h, idC); jr.State != "done" {
		t.Fatalf("job C ended %q (%s)", jr.State, jr.Error)
	}
	rec = del(idC)
	if rec.Code != http.StatusConflict {
		t.Fatalf("cancel finished: status %d, want 409: %s", rec.Code, rec.Body.String())
	}
	if er := decode[ErrorResponse](t, rec); er.Error == "" {
		t.Fatal("409 without an error message")
	}

	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, httptest.NewRequest("GET", "/v1/stats", nil))
	if st := decode[StatsResponse](t, srec); st.Jobs.Cancelled < 2 {
		t.Fatalf("cancelled counter %d, want >= 2", st.Jobs.Cancelled)
	}
}

// TestJobStreamReplay: subscribing to a finished job replays its event log
// — the progress trail is not lost on late subscribers — and ends with a
// done event carrying the final job document.
func TestJobStreamReplay(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/mine:async", AsyncMineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.String())
	}
	id := decode[JobResponse](t, rec).ID
	polled := pollJob(t, h, id)
	if polled.State != "done" || polled.Result == nil {
		t.Fatalf("job ended %q (%s)", polled.State, polled.Error)
	}

	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/stream", nil))
	evs := parseNDJSON(t, srec)
	last := evs[len(evs)-1]
	if last.Event != streamDone || last.Job == nil || last.Job.State != "done" {
		t.Fatalf("last event %+v, want done with the job document", last)
	}
	sameMineOutcome(t, "replayed job result", last.Job.Result, polled.Result)
	progress := 0
	for _, ev := range evs[:len(evs)-1] {
		if ev.Event != streamProgress {
			t.Fatalf("unexpected replayed event %q", ev.Event)
		}
		progress++
	}
	if progress == 0 {
		t.Fatal("no progress events were replayed")
	}
}

// TestJobStreamClientGone: a subscriber that disconnects mid-stream drops
// its reference without killing the retained job, which runs to completion
// and stays pollable.
func TestJobStreamClientGone(t *testing.T) {
	s := tinyServer(t, Options{ResultCache: -1})
	release := make(chan struct{})
	real := s.sys().MineContext
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return real(ctx, targets, opts...)
	})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/mine:async", AsyncMineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.String())
	}
	id := decode[JobResponse](t, rec).ID
	j, ok := s.jobs.Get(id)
	if !ok {
		t.Fatal("submitted job not in the registry")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/stream", nil).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	// The subscriber holds the job's only reference (async interest is
	// retention-based); then it disconnects.
	waitFor(t, func() bool { return j.Refs() == 1 })
	cancel()
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stream handler did not return after the client left")
	}
	if refs := j.Refs(); refs != 0 {
		t.Fatalf("refs = %d after disconnect, want 0", refs)
	}

	// The retained job was not abandoned: it finishes and stays pollable.
	close(release)
	if jr := pollJob(t, h, id); jr.State != "done" || jr.Result == nil {
		t.Fatalf("job ended %q after subscriber left (%s)", jr.State, jr.Error)
	}
}

// TestAsyncCacheHitJob: a mine:async for an already-cached query still
// yields a pollable job — born done, carrying the cached result.
func TestAsyncCacheHitJob(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	q := MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}}
	blocking := decode[MineResponse](t, postJSON(t, h, "/v1/mine", q))
	runs := s.mineRuns.Load()

	rec := postJSON(t, h, "/v1/mine:async", AsyncMineRequest{Targets: q.Targets})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.String())
	}
	sub := decode[JobResponse](t, rec)
	if sub.State != "done" || sub.Result == nil {
		t.Fatalf("cache-hit job not born done: %+v", sub)
	}
	sameMineOutcome(t, "cache-hit job", sub.Result, &blocking)
	if got := s.mineRuns.Load(); got != runs {
		t.Fatalf("cache hit started a mining run (%d -> %d)", runs, got)
	}
	// And it is pollable like any other job.
	if jr := pollJob(t, h, sub.ID); jr.State != "done" {
		t.Fatalf("poll after cache hit: state %q", jr.State)
	}
}

// TestBatchSaturationReleasesPlan: when the pool and queue are full, a
// batch carrying genuinely new sets cannot submit its phase job — the
// request sheds with 429 and the already-registered member jobs are
// released, retiring their flight keys instead of leaving them parked.
func TestBatchSaturationReleasesPlan(t *testing.T) {
	s := tinyServer(t, Options{JobWorkers: 1, JobQueueDepth: 1, ResultCache: -1})
	if names := s.KBNames(); len(names) != 1 || names[0] != DefaultKBName {
		t.Fatalf("KBNames = %v, want [%s]", names, DefaultKBName)
	}
	release := make(chan struct{})
	real := s.sys().MineContext
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return real(ctx, targets, opts...)
	})
	h := s.Handler()

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 2)
	for i, name := range []string{"Rennes", "Nantes"} {
		i, name := i, name
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = postJSON(t, h, "/v1/mine", MineRequest{Targets: []string{tinyNS + name}})
		}()
		want := i + 1
		waitFor(t, func() bool {
			st := s.jobs.Snapshot()
			return st.Running+st.Queued == want
		})
	}

	rec := postJSON(t, h, "/v1/mine:batch", BatchMineRequest{Sets: [][]string{{tinyNS + "Paris"}}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	key := flightKeyOf(t, s, MineRequest{Targets: []string{tinyNS + "Paris"}})
	waitFor(t, func() bool {
		_, ok := s.jobs.Lookup(key)
		return !ok
	})

	close(release)
	wg.Wait()
	for i, r := range recs {
		if r.Code != http.StatusOK {
			t.Fatalf("request %d: status %d after release: %s", i, r.Code, r.Body.String())
		}
	}
	// The shed batch left nothing behind: the same batch now mines cleanly.
	rec = postJSON(t, h, "/v1/mine:batch", BatchMineRequest{Sets: [][]string{{tinyNS + "Paris"}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch retry status %d: %s", rec.Code, rec.Body.String())
	}
	br := decode[BatchMineResponse](t, rec)
	if br.Stats.Mined != 1 || br.Results[0].Response == nil {
		t.Fatalf("batch retry did not mine: %+v", br.Stats)
	}
}
