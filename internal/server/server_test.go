package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	remi "github.com/remi-kb/remi"
)

const tinyNS = "http://tiny.demo/resource/"

var (
	tinyOnce sync.Once
	tinySys  *remi.System
)

// tinyServer shares one generated tiny KB across tests (building it is the
// expensive part) but gives each test a fresh Server with fresh counters.
func tinyServer(t *testing.T, opts Options) *Server {
	t.Helper()
	tinyOnce.Do(func() {
		var err error
		tinySys, err = remi.GenerateDemo("tiny", 42, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	s := New(tinySys, opts)
	t.Cleanup(s.Close)
	return s
}

// flightKeyOf computes the unified flight/cache key a request would get,
// for tests poking the job registry directly.
func flightKeyOf(t *testing.T, s *Server, q MineRequest) string {
	t.Helper()
	q.normalize()
	if _, err := s.mineOptions(&q); err != nil {
		t.Fatal(err)
	}
	e, err := s.lookupKB("")
	if err != nil {
		t.Fatal(err)
	}
	return s.cacheKey(e, q.key())
}

// mineEach installs fn as the server's miner: every mining phase calls it
// once per set, in order, and delivers each outcome as that set's entry.
// fn receives the phase's options, so a real System.MineContext behind it
// emits progress, which the phase routes to its first set.
func mineEach(s *Server, fn func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error)) {
	s.mineBatchEach = func(ctx context.Context, sets [][]string, each func(int, remi.BatchEntry), opts ...remi.MineOption) (*remi.BatchResult, error) {
		br := &remi.BatchResult{Entries: make([]remi.BatchEntry, len(sets))}
		for i, set := range sets {
			res, err := fn(ctx, set, opts...)
			br.Entries[i] = remi.BatchEntry{Result: res, Err: err}
			each(i, br.Entries[i])
		}
		return br, nil
	}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestMineHappyPath(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/mine", MineRequest{
		Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decode[MineResponse](t, rec)
	if !out.Found || out.Solution == nil {
		t.Fatalf("no solution: %s", rec.Body.String())
	}
	if out.Solution.Expression == "" || out.Solution.NL == "" || out.Solution.SPARQL == "" {
		t.Fatalf("incomplete solution: %+v", out.Solution)
	}
	if out.Stats.Candidates == 0 || out.Stats.Visited == 0 {
		t.Fatalf("empty stats: %+v", out.Stats)
	}
	if out.Stats.TimedOut {
		t.Fatal("tiny mine timed out")
	}
}

func TestMineValidation(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown entity", MineRequest{Targets: []string{tinyNS + "Nowhere"}}, http.StatusNotFound},
		{"empty targets", MineRequest{}, http.StatusBadRequest},
		{"bad metric", MineRequest{Targets: []string{tinyNS + "Paris"}, Metric: "xx"}, http.StatusBadRequest},
		{"bad language", MineRequest{Targets: []string{tinyNS + "Paris"}, Language: "xx"}, http.StatusBadRequest},
		{"negative workers", MineRequest{Targets: []string{tinyNS + "Paris"}, Workers: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := postJSON(t, h, "/v1/mine", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		out := decode[ErrorResponse](t, rec)
		if out.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	req := httptest.NewRequest("POST", "/v1/mine", bytes.NewReader([]byte("{not json")))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", rec.Code)
	}
}

// TestMineCancelledRequest: a request whose context is cancelled mid-search
// returns promptly with 499, and the underlying miner run observes the
// cancellation (visible as a timed-out run in the aggregate stats).
func TestMineCancelledRequest(t *testing.T) {
	s := tinyServer(t, Options{})
	// Deterministic "long search": the job blocks until its context ends —
	// which the abandonment of the last waiter must provide — then runs the
	// real System under that cancelled context.
	started := make(chan struct{})
	real := s.sys().MineContext
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		close(started)
		<-ctx.Done()
		return real(ctx, targets, opts...)
	})
	h := s.Handler()

	buf, _ := json.Marshal(MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}})
	req := httptest.NewRequest("POST", "/v1/mine", bytes.NewReader(buf))
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	req = req.WithContext(ctx)
	// The client goes away once the pool is executing the search, so the
	// abandonment hits a *running* job (the queued case is covered by the
	// jobs package).
	go func() {
		<-started
		cancel()
	}()

	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled request took %v", took)
	}
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}

	// The mining goroutine finishes in the background; its run must have
	// observed the cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		st := decode[StatsResponse](t, rec)
		if st.Mining.Runs >= 1 && st.Mining.TimedOut >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("miner never observed the cancellation: %+v", st.Mining)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMineDeduplicated: two concurrent identical queries share one mining
// run; the joining request is marked deduplicated.
func TestMineDeduplicated(t *testing.T) {
	s := tinyServer(t, Options{})
	release := make(chan struct{})
	var calls atomic.Int32
	real := s.sys().MineContext
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		calls.Add(1)
		<-release
		return real(ctx, targets, opts...)
	})
	h := s.Handler()
	// Same query, different target order: normalization must unify the key.
	bodies := []MineRequest{
		{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}},
		{Targets: []string{tinyNS + "Nantes", tinyNS + "Rennes"}},
	}

	key := flightKeyOf(t, s, MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}})
	recs := make([]*httptest.ResponseRecorder, 2)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = postJSON(t, h, "/v1/mine", bodies[i])
		}(i)
		// Wait until request i holds a reference on the shared job before
		// starting the next, so the overlap is guaranteed.
		want := i + 1
		waitFor(t, func() bool {
			j, ok := s.jobs.Lookup(key)
			return ok && j.Refs() == want
		})
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("expected 1 shared mining run, got %d", got)
	}
	var deduped int
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		out := decode[MineResponse](t, rec)
		if !out.Found {
			t.Fatalf("request %d found nothing", i)
		}
		if out.Deduplicated {
			deduped++
		}
	}
	if deduped != 1 {
		t.Fatalf("expected exactly 1 deduplicated response, got %d", deduped)
	}
}

// TestDedupKeyCollisionResistance: a crafted IRI must not produce the same
// flight key as a different target list.
func TestDedupKeyCollisionResistance(t *testing.T) {
	a := MineRequest{Targets: []string{"http://x/a\nhttp://x/b"}}
	b := MineRequest{Targets: []string{"http://x/a", "http://x/b"}}
	a.normalize()
	b.normalize()
	if a.key() == b.key() {
		t.Fatal("crafted single target collides with a two-target query")
	}
}

// TestDedupKeyCanonicalization: a query spelling out the defaults shares a
// flight key with one that omits them.
func TestDedupKeyCanonicalization(t *testing.T) {
	s := tinyServer(t, Options{DefaultWorkers: 4, DefaultTimeout: time.Second})
	a := MineRequest{Targets: []string{tinyNS + "Paris"}}
	b := MineRequest{Targets: []string{tinyNS + "Paris"},
		Metric: "fr", Language: "extended", Workers: 4, TimeoutMS: 1000, TopK: 1}
	a.normalize()
	b.normalize()
	if _, err := s.mineOptions(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.mineOptions(&b); err != nil {
		t.Fatal(err)
	}
	if a.key() != b.key() {
		t.Fatalf("equivalent queries got different keys:\n%q\n%q", a.key(), b.key())
	}
}

// TestMineClampsExcessiveOptions: over-limit top_k and exceptions are
// clamped, not rejected, matching the workers/timeout behavior.
func TestMineClampsExcessiveOptions(t *testing.T) {
	s := tinyServer(t, Options{})
	q := MineRequest{Targets: []string{tinyNS + "Paris"}, TopK: 9999, Exceptions: 1 << 30}
	if _, err := s.mineOptions(&q); err != nil {
		t.Fatal(err)
	}
	if q.TopK != s.opts.MaxTopK {
		t.Fatalf("top_k clamped to %d, want %d", q.TopK, s.opts.MaxTopK)
	}
	if q.Exceptions != s.opts.MaxExceptions {
		t.Fatalf("exceptions clamped to %d, want %d", q.Exceptions, s.opts.MaxExceptions)
	}
}

// TestMineBodyTooLarge: an oversized request body is rejected before it is
// fully buffered.
func TestMineBodyTooLarge(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()
	big := bytes.Repeat([]byte("a"), maxBodyBytes+1024)
	body := append([]byte(`{"targets":["`), big...)
	body = append(body, []byte(`"]}`)...)
	req := httptest.NewRequest("POST", "/v1/mine", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want %d", rec.Code, http.StatusRequestEntityTooLarge)
	}
}

// TestMinePanicRecovered: a panic inside the shared mining run becomes a
// 500 for the waiters instead of killing the process.
func TestMinePanicRecovered(t *testing.T) {
	s := tinyServer(t, Options{})
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		panic("boom")
	})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/mine", MineRequest{Targets: []string{tinyNS + "Paris"}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decode[ErrorResponse](t, rec)
	if out.Error == "" {
		t.Fatal("missing error message")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSummarizeAndDescribe(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()

	rec := postJSON(t, h, "/v1/summarize", SummarizeRequest{Entity: tinyNS + "Paris", Size: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("summarize: status %d: %s", rec.Code, rec.Body.String())
	}
	sum := decode[SummarizeResponse](t, rec)
	if len(sum.Features) == 0 {
		t.Fatal("summarize returned no features")
	}
	for _, f := range sum.Features {
		if f.Predicate == "" || f.Object == "" {
			t.Fatalf("incomplete feature: %+v", f)
		}
	}

	rec = postJSON(t, h, "/v1/summarize", SummarizeRequest{Entity: tinyNS + "Nowhere"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("summarize unknown: status %d", rec.Code)
	}

	req := httptest.NewRequest("GET", "/v1/describe?entity="+tinyNS+"Paris", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("describe: status %d: %s", rec.Code, rec.Body.String())
	}
	desc := decode[DescribeResponse](t, rec)
	if desc.Label == "" {
		t.Fatal("describe returned no label")
	}

	req = httptest.NewRequest("GET", "/v1/describe?entity="+tinyNS+"Nowhere", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("describe unknown: status %d", rec.Code)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()

	postJSON(t, h, "/v1/mine", MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}})
	postJSON(t, h, "/v1/mine", MineRequest{Targets: []string{tinyNS + "Nowhere"}})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	st := decode[StatsResponse](t, rec)
	if st.KB.Facts == 0 || st.KB.Entities == 0 {
		t.Fatalf("stats missing KB sizes: %+v", st.KB)
	}
	mine := st.Endpoints["mine"]
	if mine.Requests != 2 || mine.Errors != 1 {
		t.Fatalf("mine counters: %+v", mine)
	}
	if st.Endpoints["healthz"].Requests != 1 {
		t.Fatalf("healthz counter: %+v", st.Endpoints["healthz"])
	}
	// Runs counts attempts: the successful mine and the unknown-entity one.
	if st.Mining.Runs != 2 || st.Mining.Visited == 0 || st.Mining.SolutionsFound != 1 {
		t.Fatalf("mining aggregates: %+v", st.Mining)
	}
	if st.Mining.LastRun == nil {
		t.Fatal("missing last run stats")
	}
}

// The ref-counted last-waiter cancellation contract now lives in the jobs
// registry; internal/server/jobs has the unit coverage
// (TestLastWaiterAbandonsRun and friends). The server-level tests here
// exercise it end-to-end through the HTTP handlers.

// TestMineResultCache: a repeated identical query is served from the
// completed-result LRU (marked cached, no new mining run), hit/miss counters
// surface in /v1/stats, and SwapSystem fully invalidates the cache.
func TestMineResultCache(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	body := MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}}

	first := decode[MineResponse](t, postJSON(t, h, "/v1/mine", body))
	if !first.Found || first.Cached {
		t.Fatalf("first response wrong: %+v", first)
	}
	if runs := s.mineRuns.Load(); runs != 1 {
		t.Fatalf("runs after first = %d", runs)
	}

	// Same query, shuffled target order: normalization must make it a hit.
	shuffled := MineRequest{Targets: []string{tinyNS + "Nantes", tinyNS + "Rennes"}}
	second := decode[MineResponse](t, postJSON(t, h, "/v1/mine", shuffled))
	if !second.Cached {
		t.Fatalf("second response not cached: %+v", second)
	}
	if second.Solution == nil || second.Solution.Expression != first.Solution.Expression {
		t.Fatalf("cached solution differs: %+v vs %+v", second.Solution, first.Solution)
	}
	if runs := s.mineRuns.Load(); runs != 1 {
		t.Fatalf("cached hit started a run: runs = %d", runs)
	}

	stats := decode[StatsResponse](t, func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/v1/stats", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}())
	rc := stats.ResultCache
	if !rc.Enabled || rc.Size != 1 || rc.Hits != 1 || rc.Misses != 1 {
		t.Fatalf("result cache stats = %+v", rc)
	}

	// A KB reload invalidates everything: the same query mines again.
	s.SwapSystem(s.sys())
	third := decode[MineResponse](t, postJSON(t, h, "/v1/mine", body))
	if third.Cached {
		t.Fatal("cache survived SwapSystem")
	}
	if runs := s.mineRuns.Load(); runs != 2 {
		t.Fatalf("runs after swap = %d", runs)
	}
}

// TestMineResultCacheDisabled: a negative capacity turns the cache off.
func TestMineResultCacheDisabled(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
	h := s.Handler()
	body := MineRequest{Targets: []string{tinyNS + "Paris"}}
	for i := 0; i < 2; i++ {
		out := decode[MineResponse](t, postJSON(t, h, "/v1/mine", body))
		if out.Cached {
			t.Fatal("disabled cache served a response")
		}
	}
	if runs := s.mineRuns.Load(); runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

// TestMineResultCacheSkipsTimedOut: partial (timed-out) results must not be
// pinned in the cache — a retry deserves a fresh search.
func TestMineResultCacheSkipsTimedOut(t *testing.T) {
	s := tinyServer(t, Options{})
	mineEach(s, func(ctx context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
		return &remi.Result{Stats: remi.MineStats{TimedOut: true}}, nil
	})
	h := s.Handler()
	body := MineRequest{Targets: []string{tinyNS + "Paris"}}
	for i := 0; i < 2; i++ {
		out := decode[MineResponse](t, postJSON(t, h, "/v1/mine", body))
		if out.Cached {
			t.Fatal("timed-out result was cached")
		}
	}
	if runs := s.mineRuns.Load(); runs != 2 {
		t.Fatalf("runs = %d, want 2 (no caching of partial results)", runs)
	}
}
