// Package server exposes loaded remi.Systems as a long-lived HTTP/JSON
// service: each knowledge base is loaded (or generated) once and registered
// under a name in the server's KB registry; the thread-safe Systems are
// shared across requests and routed by a `kb` request field or a
// /v1/kb/{name}/ path prefix (requests that name no KB use the default).
// Mining runs are tied to the request context — a client disconnect or
// deadline cancels the underlying search — concurrent identical queries are
// deduplicated onto a single in-flight run, and batches of target sets share
// one mining pass (POST /v1/mine:batch). Command remi-serve wraps this
// package in a binary.
package server

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/lru"
	"github.com/remi-kb/remi/internal/server/faults"
	"github.com/remi-kb/remi/internal/server/jobs"
)

// StatusClientClosedRequest is returned when the client went away before
// the mining run finished (nginx's non-standard 499).
const StatusClientClosedRequest = 499

// DefaultKBName is the registry name New gives its knowledge base; requests
// that name no KB route to the server's default entry.
const DefaultKBName = "default"

// ErrUnknownKB is wrapped when a request routes to a KB name absent from
// the registry; the handlers map it to a 404.
var ErrUnknownKB = errors.New("unknown knowledge base")

// errKBConflict marks a request whose body names one KB while its path
// routes to another; mapped to a 400.
var errKBConflict = errors.New("conflicting knowledge-base names")

// errDraining rejects new mining work while the server drains for
// shutdown; mapped to a 503 (the instance is going away — no Retry-After,
// the client should pick another replica).
var errDraining = errors.New("server is draining; not accepting new mining work")

// errQuotaExceeded rejects a request that overran its client's token
// bucket; mapped to a 429 whose Retry-After is derived from the client's
// own deficit, distinct from pool saturation.
var errQuotaExceeded = errors.New("client quota exceeded")

// errReloadQuarantined rejects a reload attempt while its KB source is
// quarantined after previous failures (exponential backoff).
var errReloadQuarantined = errors.New("KB source quarantined after failed reloads")

// ErrKBUnchanged is returned by a ReloadKB loader that found its source
// byte-identical to what is already serving (a replica's periodic snapshot
// refresh, most of the time). ReloadKB treats it as a benign no-op: the
// generation does not advance — so cached results stay valid — and any
// failure streak or quarantine is cleared, since the source proved
// reachable and consistent.
var ErrKBUnchanged = errors.New("KB source unchanged")

// Options tunes a Server. The zero value is usable: no default timeout, no
// caps beyond the built-in safety limits.
type Options struct {
	// DefaultTimeout bounds a mining run when the request does not carry
	// its own timeout_ms (0 = unbounded, unless MaxTimeout is set).
	DefaultTimeout time.Duration
	// MaxTimeout is the ceiling on any mining run: it clamps
	// request-supplied timeouts and also bounds runs that would otherwise
	// be unbounded, so no single request can hold a worker forever
	// (0 = no ceiling). Batch requests are budgeted per target set.
	MaxTimeout time.Duration
	// DefaultWorkers is the P-REMI parallelism used when the request does
	// not set workers (0 or 1 = sequential REMI).
	DefaultWorkers int
	// MaxWorkers clamps request-supplied worker counts (0 = no clamp).
	MaxWorkers int
	// MaxTargets caps the number of target IRIs per mine request — and per
	// target set of a batch request (0 = the built-in default of 64).
	MaxTargets int
	// MaxTopK clamps requested alternative counts (0 = the built-in 25).
	MaxTopK int
	// MaxExceptions clamps the requested exception budget so one request
	// cannot disable the miner's pruning outright (0 = the built-in 100).
	MaxExceptions int
	// MaxBatchSets caps the number of target sets per mine:batch request
	// (0 = the built-in default of 64).
	MaxBatchSets int
	// BatchWorkers bounds the worker pool a batch request fans its target
	// sets across (0 = the built-in default of 4).
	BatchWorkers int
	// ResultCache is the capacity (entries) of the LRU of completed mine
	// responses, keyed by the same normalized query key as the in-flight
	// dedup plus the KB name: a repeated identical query is served from
	// memory instead of re-running the search. 0 picks the built-in default
	// of 1024; negative disables the cache. Timed-out (partial) results are
	// never cached, and invalidation is scoped per KB: swapping one KB
	// (SwapKB/SIGHUP) bumps that KB's generation tag, so only its entries
	// become unreachable (they age out of the LRU) while other KBs keep
	// serving from cache.
	ResultCache int
	// JobWorkers is the worker pool executing mining jobs — every mining
	// request (blocking, batch, async, streaming) runs on it (0 = the
	// built-in default of 4).
	JobWorkers int
	// JobQueueDepth bounds how many admitted jobs may wait for a worker;
	// beyond it submissions are shed with 429 + Retry-After (0 = the
	// built-in default of 64).
	JobQueueDepth int
	// JobTTL is how long a finished async job stays pollable before the
	// garbage collector drops it (0 = the built-in default of 5m).
	JobTTL time.Duration
	// WatchdogGrace arms the job watchdog: a mining run that exceeds its
	// effective timeout by this much is failed with a distinct watchdog
	// error and its worker slot is freed, so a wedged evaluator cannot
	// starve the pool. 0 disables the watchdog (runs keep their own
	// timeouts but are never force-killed).
	WatchdogGrace time.Duration
	// InteractiveReserve reserves this many job-queue slots for
	// interactive submissions: batch mining is shed with 429 while only
	// the reserve remains free (0 = no reservation).
	InteractiveReserve int
	// QuotaRate enables per-client admission quotas: each client key (the
	// X-Client-Id header, else the remote IP) refills at this many mining
	// units per second (a single mine costs 1, a batch costs one per
	// target set). 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the bucket capacity per client (how much a client may
	// burst above its steady rate; 0 picks the built-in default of 10).
	QuotaBurst float64
	// ReloadBackoff is the quarantine after the first failed KB reload;
	// each consecutive failure doubles it up to ReloadBackoffMax
	// (defaults 1s and 5m). Tests shrink these to keep chaos runs fast.
	ReloadBackoff    time.Duration
	ReloadBackoffMax time.Duration
	// RetireGrace closes a swapped-out System (releasing its snapshot
	// mapping) this long after a swap replaced it. It must exceed the
	// longest possible mining run (MaxTimeout plus WatchdogGrace), or a run
	// still reading the old generation would touch unmapped memory.
	// 0 (the default) never closes old generations: their mappings stay
	// pinned for the process lifetime, which is always safe.
	RetireGrace time.Duration
}

const (
	defaultMaxTargets    = 64
	defaultMaxTopK       = 25
	defaultMaxExceptions = 100
	defaultMaxBatchSets  = 64
	defaultBatchWorkers  = 4
	defaultResultCache   = 1024
	defaultJobWorkers    = 4
	defaultJobQueue      = 64
	defaultJobTTL        = 5 * time.Minute
	defaultQuotaBurst    = 10
	defaultReloadBackoff = time.Second
	maxReloadBackoff     = 5 * time.Minute
	defaultSummary       = 5
	maxSummary           = 100
	// maxBodyBytes caps request bodies before decoding so an oversized
	// payload cannot balloon memory ahead of validation.
	maxBodyBytes = 1 << 20
)

// kbNameRE validates registry names: they appear in URL paths and cache
// keys, so they stay short and URL-safe.
var kbNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// ValidateKBName reports whether name is usable as a registry name.
// Commands should call it on user-supplied names before constructing a
// server, so a bad flag is an error message rather than a panic.
func ValidateKBName(name string) error {
	if !kbNameRE.MatchString(name) {
		return fmt.Errorf("invalid KB name %q (want [A-Za-z0-9._-]{1,64})", name)
	}
	return nil
}

type counter struct {
	requests atomic.Int64
	errors   atomic.Int64
}

func (c *counter) stats() EndpointStats {
	return EndpointStats{Requests: c.requests.Load(), Errors: c.errors.Load()}
}

// kbEntry is one registered knowledge base: its live System plus the
// generation tag that scopes cache invalidation to this KB.
type kbEntry struct {
	name   string
	sysPtr atomic.Pointer[remi.System]
	// generation counts swaps of this KB; it prefixes every cache and
	// flight key derived from it, so a reload makes the old entries — and
	// only this KB's — unreachable.
	generation atomic.Int64
	// requests counts requests routed to this KB (all endpoints).
	requests atomic.Int64

	// Last-known-good reload state. A failed reload leaves sysPtr and
	// generation untouched — the old System keeps serving byte-identical
	// results — and quarantines the source with exponential backoff.
	reloadMu        sync.Mutex   // serializes reloads of this KB
	failStreak      int          // consecutive failed reloads (guarded by reloadMu)
	reloadFailures  atomic.Int64 // total failed reloads since start
	lastGoodGen     atomic.Int64 // generation of the last successful load
	quarantineUntil atomic.Int64 // unix nanos; 0 = not quarantined

	// Live (mutable) KB state: nil for snapshot/file-backed entries. When
	// set, the admin mutation plane (facts, compile) operates on this KB.
	live              *remi.LiveKB
	compacting        atomic.Bool  // one compile at a time per KB
	lastCompactionGen atomic.Int64 // generation installed by the last compile
}

func (e *kbEntry) sys() *remi.System { return e.sysPtr.Load() }

// mineBatchEachFunc abstracts System.MineBatchEach for tests.
type mineBatchEachFunc func(ctx context.Context, sets [][]string, each func(int, remi.BatchEntry), opts ...remi.MineOption) (*remi.BatchResult, error)

// Server handles the REMI HTTP API. Create with New (optionally AddKB more
// knowledge bases) and mount Handler.
type Server struct {
	mu          sync.RWMutex
	kbs         map[string]*kbEntry
	defaultName string

	mineBatchEach mineBatchEachFunc // test override (nil in production)
	opts          Options
	started       time.Time
	// jobs is the unified execution subsystem: every mined target set —
	// whichever endpoint asked for it — is a member job in this registry,
	// sharing one flight-key namespace and one admission-controlled pool.
	jobs *jobs.Registry

	// quota is the per-client token-bucket layer (nil when disabled).
	quota         *quotaLimiter
	quotaRejected atomic.Int64

	// draining flips at StartDrain: readiness goes 503, mining endpoints
	// refuse new work, in-flight jobs keep running.
	draining atomic.Bool

	// results caches completed mine results by KB-name- and
	// generation-tagged query key (nil when disabled). A KB swap bumps that
	// KB's generation, which makes its cached keys — and its in-flight
	// dedup keys — unreachable without touching entries of other KBs.
	results *lru.Cache[string, *remi.Result]

	cMine       counter
	cFacts      counter
	cCompile    counter
	cMineBatch  counter
	cMineAsync  counter
	cMineStream counter
	cJobs       counter
	cSummarize  counter
	cDescribe   counter
	cStats      counter
	cHealth     counter
	cReady      counter
	cNotFound   counter

	mineRuns    atomic.Int64
	dedupedHits atomic.Int64

	aggMu   sync.Mutex
	agg     MiningStats
	lastRun *MineStats
	lastAt  time.Time
}

// New wraps a loaded System, registered under name (DefaultKBName when
// empty) as the server's default KB.
func New(sys *remi.System, opts Options) *Server { return NewNamed(DefaultKBName, sys, opts) }

// NewNamed is New with an explicit registry name for the default KB.
func NewNamed(name string, sys *remi.System, opts Options) *Server {
	if opts.MaxTargets <= 0 {
		opts.MaxTargets = defaultMaxTargets
	}
	if opts.MaxTopK <= 0 {
		opts.MaxTopK = defaultMaxTopK
	}
	if opts.MaxExceptions <= 0 {
		opts.MaxExceptions = defaultMaxExceptions
	}
	if opts.MaxBatchSets <= 0 {
		opts.MaxBatchSets = defaultMaxBatchSets
	}
	if opts.BatchWorkers <= 0 {
		opts.BatchWorkers = defaultBatchWorkers
	}
	if opts.ResultCache == 0 {
		opts.ResultCache = defaultResultCache
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = defaultJobWorkers
	}
	if opts.JobQueueDepth <= 0 {
		opts.JobQueueDepth = defaultJobQueue
	}
	if opts.JobTTL <= 0 {
		opts.JobTTL = defaultJobTTL
	}
	if opts.QuotaBurst <= 0 {
		opts.QuotaBurst = defaultQuotaBurst
	}
	if opts.ReloadBackoff <= 0 {
		opts.ReloadBackoff = defaultReloadBackoff
	}
	if opts.ReloadBackoffMax <= 0 {
		opts.ReloadBackoffMax = maxReloadBackoff
	}
	if name == "" {
		name = DefaultKBName
	}
	s := &Server{opts: opts, started: time.Now(), kbs: make(map[string]*kbEntry), defaultName: name}
	if err := s.AddKB(name, sys); err != nil {
		// The only failure modes are an invalid or duplicate name; a bad
		// default name is a programming error, not a runtime condition.
		panic("server: " + err.Error())
	}
	if opts.ResultCache > 0 {
		s.results = lru.New[string, *remi.Result](opts.ResultCache)
	}
	s.jobs = jobs.New(jobs.Options{
		Workers:            opts.JobWorkers,
		QueueDepth:         opts.JobQueueDepth,
		TTL:                opts.JobTTL,
		WatchdogGrace:      opts.WatchdogGrace,
		InteractiveReserve: opts.InteractiveReserve,
	})
	if opts.QuotaRate > 0 {
		s.quota = newQuotaLimiter(opts.QuotaRate, opts.QuotaBurst)
	}
	return s
}

// Close stops the job subsystem: queued and running jobs are cancelled,
// workers drained. The HTTP handler must not serve requests afterwards.
func (s *Server) Close() { s.jobs.Close() }

// AddKB registers an additional knowledge base under name. Register every
// KB before the handler starts serving traffic; names must be URL-safe
// ([A-Za-z0-9._-], at most 64 bytes) and unique.
func (s *Server) AddKB(name string, sys *remi.System) error {
	if err := ValidateKBName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.kbs[name]; ok {
		return fmt.Errorf("KB %q already registered", name)
	}
	e := &kbEntry{name: name}
	e.sysPtr.Store(sys)
	s.kbs[name] = e
	return nil
}

// KBNames lists the registered knowledge bases (unordered).
func (s *Server) KBNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.kbs))
	for name := range s.kbs {
		names = append(names, name)
	}
	return names
}

// lookupKB returns the registry entry for name ("" = the default KB).
func (s *Server) lookupKB(name string) (*kbEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		name = s.defaultName
	}
	e := s.kbs[name]
	if e == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownKB, name)
	}
	return e, nil
}

// kbFromRequest resolves the KB a request routes to: the /v1/kb/{kb}/ path
// segment, the request's kb field, the ?kb= query parameter, or the
// default KB, in that order. Any two sources that disagree are rejected
// rather than silently overridden — a client never gets answers from a KB
// other than the one it named.
func (s *Server) kbFromRequest(r *http.Request, bodyKB string) (*kbEntry, error) {
	name := ""
	for _, src := range []struct{ where, name string }{
		{"path", r.PathValue("kb")},
		{"body", bodyKB},
		{"query parameter", r.URL.Query().Get("kb")},
	} {
		switch {
		case src.name == "":
		case name == "":
			name = src.name
		case src.name != name:
			return nil, fmt.Errorf("%w: the %s names %q but the request routes to %q",
				errKBConflict, src.where, src.name, name)
		}
	}
	e, err := s.lookupKB(name)
	if err != nil {
		return nil, err
	}
	e.requests.Add(1)
	return e, nil
}

// sys returns the default KB's System (kept for embedders and tests of the
// single-KB configuration).
func (s *Server) sys() *remi.System {
	e, err := s.lookupKB("")
	if err != nil {
		return nil
	}
	return e.sys()
}

// mineBatchEachContext routes to the test override when set, otherwise to
// the entry's current System.
func (s *Server) mineBatchEachContext(e *kbEntry, ctx context.Context, sets [][]string, each func(int, remi.BatchEntry), opts ...remi.MineOption) (*remi.BatchResult, error) {
	if s.mineBatchEach != nil {
		return s.mineBatchEach(ctx, sets, each, opts...)
	}
	return e.sys().MineBatchEach(ctx, sets, each, opts...)
}

// SwapSystem replaces the default knowledge base (see SwapKB).
func (s *Server) SwapSystem(sys *remi.System) {
	s.mu.RLock()
	name := s.defaultName
	s.mu.RUnlock()
	_ = s.SwapKB(name, sys)
}

// SwapKB replaces one registered knowledge base (a KB reload) and
// invalidates every cached result and in-flight dedup key scoped to it: the
// KB's generation tag changes, so runs and entries of the old System can no
// longer be reached, even by requests racing with the swap. Other KBs keep
// their cache entries.
func (s *Server) SwapKB(name string, sys *remi.System) error {
	e, err := s.lookupKB(name)
	if err != nil {
		return err
	}
	e.reloadMu.Lock()
	old := e.sys()
	e.swapIn(sys)
	e.reloadMu.Unlock()
	s.retire(old)
	return nil
}

// swapIn installs sys as the entry's live System: a successful load, so the
// generation advances, becomes the last known good one, and any reload
// quarantine is lifted. Callers hold e.reloadMu.
func (e *kbEntry) swapIn(sys *remi.System) {
	e.sysPtr.Store(sys)
	e.lastGoodGen.Store(e.generation.Add(1))
	e.failStreak = 0
	e.quarantineUntil.Store(0)
}

// ReloadKB replaces one registered knowledge base from a loader with
// last-known-good semantics: the loader runs first, and only a System it
// delivers without error is swapped in (SwapKB rules: the generation
// advances, the old cache entries become unreachable). A loader failure
// changes nothing visible — the old generation keeps serving the exact
// results it always did — and quarantines the source: further reload
// attempts are refused with errReloadQuarantined until an exponential
// backoff (ReloadBackoff, doubling per consecutive failure, capped at
// ReloadBackoffMax) has passed. Failures are counted per KB and surfaced
// as reload_failures / last_good_generation under /v1/stats.
func (s *Server) ReloadKB(name string, load func() (*remi.System, error)) error {
	e, err := s.lookupKB(name)
	if err != nil {
		return err
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if until := e.quarantineUntil.Load(); until != 0 {
		if rem := time.Until(time.Unix(0, until)); rem > 0 {
			return fmt.Errorf("%w: KB %q retries in %s (%d consecutive failure(s))",
				errReloadQuarantined, name, rem.Round(time.Millisecond), e.failStreak)
		}
	}
	sys, err := s.loadGuarded(load)
	if errors.Is(err, ErrKBUnchanged) {
		// The source is fine and identical to what serves: no swap, no
		// generation bump (caches stay warm), and the streak resets.
		e.failStreak = 0
		e.quarantineUntil.Store(0)
		return nil
	}
	if err != nil {
		e.reloadFailures.Add(1)
		e.failStreak++
		backoff := s.opts.ReloadBackoff << (e.failStreak - 1)
		if backoff <= 0 || backoff > s.opts.ReloadBackoffMax {
			backoff = s.opts.ReloadBackoffMax
		}
		e.quarantineUntil.Store(time.Now().Add(backoff).UnixNano())
		return fmt.Errorf("reload of KB %q failed (still serving generation %d, retry in %s): %w",
			name, e.generation.Load(), backoff, err)
	}
	old := e.sys()
	e.swapIn(sys)
	s.retire(old)
	return nil
}

// loadGuarded runs a KB loader through the reload failure points: a slow
// source delays, an open failure aborts before the load, a corrupt source
// aborts after it. Disarmed, the three Fire calls are three atomic loads.
func (s *Server) loadGuarded(load func() (*remi.System, error)) (*remi.System, error) {
	ctx := context.Background()
	_ = faults.Fire(ctx, faults.ReloadSlow) // delay-only point
	if err := faults.Fire(ctx, faults.ReloadOpen); err != nil {
		return nil, fmt.Errorf("opening KB source: %w", err)
	}
	sys, err := load()
	if err != nil {
		return nil, err
	}
	if err := faults.Fire(ctx, faults.ReloadCorrupt); err != nil {
		return nil, fmt.Errorf("validating KB source: %w", err)
	}
	return sys, nil
}

// StartDrain begins graceful shutdown: readiness (/readyz) flips to 503 so
// load balancers stop routing here, mining endpoints refuse new work with
// 503, and the job subsystem stops admitting — while everything already
// in flight (queued and running jobs, open streams, pollable results)
// proceeds normally. Wait for quiescence with DrainWait, then Close.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.jobs.Drain()
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainWait blocks until every tracked job has finished or ctx ends.
func (s *Server) DrainWait(ctx context.Context) error { return s.jobs.DrainWait(ctx) }

// cacheKey tags a normalized query key with the KB it runs on and that KB's
// current generation.
func (s *Server) cacheKey(e *kbEntry, key string) string {
	return e.name + "#" + strconv.FormatInt(e.generation.Load(), 10) + "|" + key
}

// Handler returns the routing table of the service. Every endpoint is
// mounted twice — at its plain path (serving the KB the request names, or
// the default) and under /v1/kb/{kb}/ — and every non-2xx the mux itself
// would emit as plain text (unknown path, method mismatch) is routed
// through the same JSON error writer as handler-level failures.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, path string
		h            http.HandlerFunc
		c            *counter
	}{
		{"POST", "/v1/mine", s.handleMine, &s.cMine},
		{"POST", "/v1/facts", s.handleFacts, &s.cFacts},
		{"POST", "/v1/admin/compile", s.handleCompile, &s.cCompile},
		{"POST", "/v1/mine:batch", s.handleMineBatch, &s.cMineBatch},
		{"POST", "/v1/mine:async", s.handleMineAsync, &s.cMineAsync},
		{"POST", "/v1/mine:stream", s.handleMineStream, &s.cMineStream},
		{"POST", "/v1/summarize", s.handleSummarize, &s.cSummarize},
		{"GET", "/v1/describe", s.handleDescribe, &s.cDescribe},
		{"GET", "/v1/stats", s.handleStats, &s.cStats},
		{"GET", "/healthz", s.handleHealth, &s.cHealth},
		{"GET", "/readyz", s.handleReady, &s.cReady},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" "+rt.path, rt.h)
		// The method-less pattern catches every other verb on a known path:
		// without it the mux would answer with a plain-text 405.
		mux.HandleFunc(rt.path, s.methodNotAllowed(rt.c, rt.method))
		if rest, ok := strings.CutPrefix(rt.path, "/v1"); ok {
			kbPath := "/v1/kb/{kb}" + rest
			mux.HandleFunc(rt.method+" "+kbPath, rt.h)
			mux.HandleFunc(kbPath, s.methodNotAllowed(rt.c, rt.method))
		}
	}
	// Job lifecycle endpoints are global (a job id already pins its KB), and
	// /v1/jobs/{id} answers two verbs, so they sit outside the table.
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("/v1/jobs/{id}", s.methodNotAllowed(&s.cJobs, "GET, DELETE"))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("/v1/jobs/{id}/stream", s.methodNotAllowed(&s.cJobs, "GET"))
	// Everything else is an unknown endpoint: JSON 404 instead of the mux's
	// plain-text page, counted under the not_found pseudo-endpoint.
	mux.HandleFunc("/", s.handleNotFound)
	return s.withRequestEnvelope(mux)
}

// Cross-tier wire headers, mirrored by the cluster router: X-Request-Id is
// accepted from the caller (the router generates one) or minted here, and
// echoed on every response — job docs, stream events and error bodies
// carry it too, so a failure traces across tiers. X-Timeout-Budget-Ms is
// the caller's remaining deadline; honoring it here means a router retry
// never runs past what the client was promised.
const (
	headerRequestID     = "X-Request-Id"
	headerTimeoutBudget = "X-Timeout-Budget-Ms"
)

// withRequestEnvelope wraps the mux with the cross-tier request envelope:
// every request gets a request id (accepted or minted) visible to handlers
// via the request header and already stamped on the response, and an
// explicit timeout budget becomes the request context's deadline.
func (s *Server) withRequestEnvelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(headerRequestID)
		if id == "" {
			id = newRequestID()
			r.Header.Set(headerRequestID, id)
		}
		w.Header().Set(headerRequestID, id)
		if h := r.Header.Get(headerTimeoutBudget); h != "" {
			if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		next.ServeHTTP(w, r)
	})
}

// newRequestID is 8 random bytes hex-encoded — short enough for a log
// line, unique enough for a trace window.
func newRequestID() string {
	var b [8]byte
	_, _ = cryptorand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// requestIDOf reads the request's id; the envelope guarantees it is set.
func requestIDOf(r *http.Request) string { return r.Header.Get(headerRequestID) }

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.cNotFound.requests.Add(1)
	s.writeError(w, &s.cNotFound, http.StatusNotFound,
		fmt.Errorf("no such endpoint %s", r.URL.Path))
}

// methodNotAllowed rejects a known path hit with the wrong verb, counting
// it against the endpoint it belongs to.
func (s *Server) methodNotAllowed(c *counter, allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		w.Header().Set("Allow", allow)
		s.writeError(w, c, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s is not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError maps an error to a status and JSON body, counting it. The
// request id rides along (the envelope stamped it on the response header
// before the handler ran) so a client can quote one token when reporting
// a cross-tier failure.
func (s *Server) writeError(w http.ResponseWriter, c *counter, status int, err error) {
	c.errors.Add(1)
	writeJSON(w, status, ErrorResponse{Error: err.Error(), RequestID: w.Header().Get(headerRequestID)})
}

// errStatus classifies request-processing errors.
func errStatus(err error) int {
	switch {
	case errors.Is(err, remi.ErrUnknownEntity):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownKB):
		return http.StatusNotFound
	case errors.Is(err, errKBConflict):
		return http.StatusBadRequest
	case errors.Is(err, remi.ErrEmptyTargetSet):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, jobs.ErrSaturated), errors.Is(err, errQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrDraining), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrWatchdogKilled):
		return http.StatusGatewayTimeout
	case errors.Is(err, jobs.ErrCancelled), errors.Is(err, jobs.ErrClosed):
		return http.StatusConflict
	case errors.Is(err, jobs.ErrPanicked), errors.Is(err, remi.ErrMinePanicked),
		errors.Is(err, errBatchAborted):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// metricOptions canonicalizes a metric name and returns the matching facade
// options (shared by mine and summarize).
func metricOptions(metric string) (canonical string, opts []remi.MineOption, err error) {
	switch metric {
	case "", "fr":
		return "fr", nil, nil
	case "pr":
		return "pr", []remi.MineOption{remi.WithMetric(remi.MetricPr)}, nil
	default:
		return "", nil, fmt.Errorf("unknown metric %q (fr|pr)", metric)
	}
}

// mineOptions validates the request against the server limits and builds
// the facade options. It also rewrites the request's option fields to their
// effective canonical values (metric/language aliases resolved, defaults
// and clamps applied), so the dedup key built afterwards matches every
// semantically identical query.
func (s *Server) mineOptions(q *MineRequest) ([]remi.MineOption, error) {
	canonical, opts, err := metricOptions(q.Metric)
	if err != nil {
		return nil, err
	}
	q.Metric = canonical
	switch q.Language {
	case "", "remi", "extended":
		q.Language = "remi"
	case "standard":
		opts = append(opts, remi.WithLanguage(remi.LanguageStandard))
	default:
		return nil, fmt.Errorf("unknown language %q (remi|standard)", q.Language)
	}
	if q.Workers < 0 || q.TopK < 0 || q.Exceptions < 0 || q.TimeoutMS < 0 {
		return nil, errors.New("workers, top_k, exceptions and timeout_ms must be non-negative")
	}
	workers := q.Workers
	if workers == 0 {
		workers = s.opts.DefaultWorkers
	}
	if s.opts.MaxWorkers > 0 && workers > s.opts.MaxWorkers {
		workers = s.opts.MaxWorkers
	}
	if workers < 1 {
		workers = 1
	}
	q.Workers = workers
	if workers > 1 {
		opts = append(opts, remi.WithWorkers(workers))
	}
	if q.TopK > s.opts.MaxTopK {
		q.TopK = s.opts.MaxTopK
	}
	if q.TopK < 2 {
		q.TopK = 1 // 0 and 1 both mean "best solution only"
	} else {
		opts = append(opts, remi.WithTopK(q.TopK))
	}
	if q.Exceptions > s.opts.MaxExceptions {
		q.Exceptions = s.opts.MaxExceptions
	}
	if q.Exceptions > 0 {
		opts = append(opts, remi.WithExceptions(q.Exceptions))
	}
	timeout := s.opts.DefaultTimeout
	if q.TimeoutMS > 0 {
		timeout = time.Duration(q.TimeoutMS) * time.Millisecond
	}
	if s.opts.MaxTimeout > 0 && (timeout <= 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	q.TimeoutMS = timeout.Milliseconds()
	if timeout > 0 {
		opts = append(opts, remi.WithTimeout(timeout))
	}
	return opts, nil
}

// decodeBody decodes a size-capped JSON request body into v. A malformed
// body is answered 400, one over the cap 413, and false returned.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, c *counter, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, c, status, fmt.Errorf("decoding request: %w", err))
	return false
}

// cachedResult consults the result LRU (nil-safe).
func (s *Server) cachedResult(key string) (*remi.Result, bool) {
	if s.results == nil {
		return nil, false
	}
	return s.results.Get(key)
}

// jobMeta travels with every job so poll and stream responses can report
// which KB the job ran against — and which request created it — without
// reaching back into the request.
type jobMeta struct {
	kb        string
	requestID string
}

// Job kinds, visible in poll responses.
const (
	jobKindMine       = "mine"
	jobKindMineBatch  = "mine_batch"
	jobKindBatchPhase = "batch_phase"
)

// jobDeadline converts a run's effective timeout into a watchdog deadline.
// With the watchdog disabled (no grace configured) every deadline is zero,
// so runs keep their cooperative timeouts but are never force-killed —
// exactly the pre-watchdog behavior.
func (s *Server) jobDeadline(timeout time.Duration) time.Duration {
	if s.opts.WatchdogGrace <= 0 {
		return 0
	}
	return timeout
}

// setRetryAfter writes a Retry-After header in whole seconds, rounded up
// and floored at 1 — "Retry-After: 0" invites an immediate retry storm, the
// opposite of what a shed response wants.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// shedLoad answers an admission-control rejection: 429 plus a Retry-After
// hint derived from the pool's average run time and current backlog.
func (s *Server) shedLoad(w http.ResponseWriter, c *counter, err error) {
	setRetryAfter(w, s.jobs.RetryAfter())
	s.writeError(w, c, http.StatusTooManyRequests, err)
}

// admitMining is the gate every mining endpoint passes before doing work:
// a draining server refuses with 503 (the instance is going away), then the
// client's quota bucket is charged units (1 per single mine, 1 per batch
// target set). A quota rejection answers 429 with a Retry-After derived
// from the client's own deficit — deliberately distinct from the pool-wide
// backlog estimate a saturation 429 carries.
func (s *Server) admitMining(w http.ResponseWriter, r *http.Request, c *counter, units int) bool {
	if s.draining.Load() {
		s.writeError(w, c, http.StatusServiceUnavailable, errDraining)
		return false
	}
	if s.quota == nil {
		return true
	}
	key := clientKey(r)
	ok, retry := s.quota.allow(key, float64(units))
	if ok {
		return true
	}
	s.quotaRejected.Add(1)
	setRetryAfter(w, retry)
	s.writeError(w, c, http.StatusTooManyRequests,
		fmt.Errorf("%w for client %q", errQuotaExceeded, key))
	return false
}

// recordPhase folds one mining phase into the aggregate stats: search
// counters per attempted set, cache traffic from the phase's exact
// evaluator totals (per-set counters may attribute a concurrent neighbor's
// lookups and would overcount).
func (s *Server) recordPhase(br *remi.BatchResult) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	s.mineRuns.Add(int64(len(br.Entries)))
	s.agg.CacheHits += br.CacheHits
	s.agg.CacheMisses += br.CacheMisses
	for _, e := range br.Entries {
		res := e.Result
		if res == nil {
			continue
		}
		st := wireStats(res.Stats)
		s.agg.Candidates += int64(res.Stats.Candidates)
		s.agg.Visited += res.Stats.Visited
		s.agg.RETests += res.Stats.RETests
		s.agg.TotalSearchMS += st.SearchMS
		s.agg.TotalQueueMS += st.QueueBuildMS
		if res.Stats.TimedOut {
			s.agg.TimedOut++
		}
		if res.Found {
			s.agg.SolutionsFound++
		}
		s.lastRun = &st
		s.lastAt = time.Now()
	}
}

func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	s.cSummarize.requests.Add(1)
	var q SummarizeRequest
	if !s.decodeBody(w, r, &s.cSummarize, &q) {
		return
	}
	e, err := s.kbFromRequest(r, q.KB)
	if err != nil {
		s.writeError(w, &s.cSummarize, errStatus(err), err)
		return
	}
	if q.Entity == "" {
		s.writeError(w, &s.cSummarize, http.StatusBadRequest, errors.New("entity is required"))
		return
	}
	if q.Size <= 0 {
		q.Size = defaultSummary
	}
	if q.Size > maxSummary {
		q.Size = maxSummary
	}
	_, opts, err := metricOptions(q.Metric)
	if err != nil {
		s.writeError(w, &s.cSummarize, http.StatusBadRequest, err)
		return
	}
	entries, err := e.sys().SummarizeContext(r.Context(), q.Entity, q.Size, opts...)
	if err != nil {
		s.writeError(w, &s.cSummarize, errStatus(err), err)
		return
	}
	out := SummarizeResponse{Entity: q.Entity, Features: make([]Feature, len(entries))}
	for i, en := range entries {
		out.Features[i] = Feature{Predicate: en.Predicate, Object: en.Object}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	s.cDescribe.requests.Add(1)
	e, err := s.kbFromRequest(r, "")
	if err != nil {
		s.writeError(w, &s.cDescribe, errStatus(err), err)
		return
	}
	entity := r.URL.Query().Get("entity")
	if entity == "" {
		s.writeError(w, &s.cDescribe, http.StatusBadRequest, errors.New("query parameter entity is required"))
		return
	}
	label, err := e.sys().Describe(entity)
	if err != nil {
		s.writeError(w, &s.cDescribe, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, DescribeResponse{Entity: entity, Label: label})
}

// kbInfo snapshots one registry entry for the stats endpoints.
func (s *Server) kbInfo(e *kbEntry) KBInfo {
	sys := e.sys()
	info := KBInfo{
		Facts:              sys.NumFacts(),
		Entities:           sys.NumEntities(),
		Predicates:         sys.NumPredicates(),
		Generation:         e.generation.Load(),
		Requests:           e.requests.Load(),
		Default:            e.name == s.defaultName,
		ReloadFailures:     e.reloadFailures.Load(),
		LastGoodGeneration: e.lastGoodGen.Load(),
	}
	if e.live != nil {
		st := e.live.Stats()
		info.Live = true
		info.FactsApplied = st.FactsApplied
		info.WalBytes = st.WalBytes
		info.WalRecords = st.WalRecords
		info.RecoveryReplayed = st.RecoveryReplayed
		info.LastCompactionGeneration = e.lastCompactionGen.Load()
		info.PendingAdds = st.PendingAdds
		info.PendingDels = st.PendingDels
	}
	if until := e.quarantineUntil.Load(); until > 0 {
		// Ceiling, not truncation: while the reload path still refuses, the
		// stats must not claim the quarantine is over.
		if left := time.Until(time.Unix(0, until)); left > 0 {
			info.QuarantinedForMS = int64((left + time.Millisecond - 1) / time.Millisecond)
		}
	}
	return info
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.cStats.requests.Add(1)
	// /v1/kb/{kb}/stats (or ?kb=) narrows the response to one KB.
	if r.PathValue("kb") != "" || r.URL.Query().Get("kb") != "" {
		e, err := s.kbFromRequest(r, "")
		if err != nil {
			s.writeError(w, &s.cStats, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, KBStatsResponse{Name: e.name, KBInfo: s.kbInfo(e)})
		return
	}
	var out StatsResponse
	out.UptimeSeconds = time.Since(s.started).Seconds()
	out.KB.Facts = s.sys().NumFacts()
	out.KB.Entities = s.sys().NumEntities()
	out.KB.Predicates = s.sys().NumPredicates()
	s.mu.RLock()
	out.KBs = make(map[string]KBInfo, len(s.kbs))
	for name, e := range s.kbs {
		out.KBs[name] = s.kbInfo(e)
	}
	s.mu.RUnlock()
	out.Endpoints = map[string]EndpointStats{
		"mine":          s.cMine.stats(),
		"facts":         s.cFacts.stats(),
		"admin_compile": s.cCompile.stats(),
		"mine_batch":    s.cMineBatch.stats(),
		"mine_async":    s.cMineAsync.stats(),
		"mine_stream":   s.cMineStream.stats(),
		"jobs":          s.cJobs.stats(),
		"summarize":     s.cSummarize.stats(),
		"describe":      s.cDescribe.stats(),
		"stats":         s.cStats.stats(),
		"healthz":       s.cHealth.stats(),
		"readyz":        s.cReady.stats(),
		"not_found":     s.cNotFound.stats(),
	}
	js := s.jobs.Snapshot()
	out.Jobs = &JobsStats{
		Workers:       js.Workers,
		QueueCapacity: js.QueueCapacity,
		Queued:        js.Queued,
		Running:       js.Running,
		Tracked:       js.Tracked,
		Submitted:     js.Submitted,
		External:      js.External,
		Joined:        js.Joined,
		Rejected:      js.Rejected,
		Completed:     js.Completed,
		Failed:        js.Failed,
		Cancelled:     js.Cancelled,
		Expired:       js.Expired,
		AvgRunMS:      js.AvgRunMS,
		RejectedBatch: js.RejectedBatch,
		WatchdogKills: js.WatchdogKilled,
		Draining:      js.Draining,
	}
	out.Draining = s.draining.Load()
	if s.quota != nil {
		out.Quota = &QuotaStats{
			Enabled:    true,
			RatePerSec: s.quota.rate,
			Burst:      s.quota.burst,
			Clients:    s.quota.clients(),
			Rejected:   s.quotaRejected.Load(),
		}
	}
	s.aggMu.Lock()
	out.Mining = s.agg
	out.Mining.LastRun = s.lastRun
	if !s.lastAt.IsZero() {
		out.Mining.LastRunUnixNS = s.lastAt.UnixNano()
	}
	s.aggMu.Unlock()
	out.Mining.Runs = s.mineRuns.Load()
	out.Mining.DedupedHits = s.dedupedHits.Load()
	if s.results != nil {
		hits, misses := s.results.Stats()
		out.ResultCache = ResultCacheStats{
			Enabled: true,
			Size:    s.results.Len(),
			Hits:    hits,
			Misses:  misses,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth is liveness: the process is up and can answer — always 200,
// draining or not. Orchestrators use it to decide whether to restart the
// process; routing decisions belong to /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.cHealth.requests.Add(1)
	s.mu.RLock()
	kbCount := len(s.kbs)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"facts":    s.sys().NumFacts(),
		"entities": s.sys().NumEntities(),
		"kbs":      kbCount,
		"draining": s.draining.Load(),
	})
}

// handleReady is readiness: whether this instance should receive new
// traffic. Draining answers 503 so load balancers take it out of rotation
// while /healthz keeps reporting the process alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.cReady.requests.Add(1)
	if s.draining.Load() {
		s.writeError(w, &s.cReady, http.StatusServiceUnavailable, errDraining)
		return
	}
	// degraded: still correct to route to (last-known-good generations keep
	// serving), but at least one KB source is quarantined after failed
	// reloads — a router surfaces it so operators see staleness early.
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "degraded": s.anyQuarantined()})
}

// anyQuarantined reports whether any registered KB currently refuses
// reloads after failures (it keeps serving its last known good system).
func (s *Server) anyQuarantined() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := time.Now().UnixNano()
	for _, e := range s.kbs {
		if until := e.quarantineUntil.Load(); until != 0 && until > now {
			return true
		}
	}
	return false
}
