package main

// The layer ladder. The traced run replays a fixed sample of the workload's
// requests through each layer's public entry point, one rung after another
// on the same inputs, and records a span per rung call. The spans of one
// request share its id; a layer's self time is its rung's time minus that of
// the next-inner rung it wraps.
//
// Read rungs, innermost first: core.queue (Miner.RankedCandidates, fresh
// miner), core.mine (Miner.MineContext, fresh miner), core.mine_warm (one
// reused miner), core.batch (Miner.MineBatch), facade.mine
// (System.MineContext), facade.batch (System.MineBatch), server.handler
// (the in-process Handler) and http.loopback (a launched remi-serve).
// Write rungs: wal.append, delta.apply, delta.materialize, live.apply
// (LiveKB.Apply), server.facts (in-process facts POST) and, once after the
// writes, live.compact. Set-up rungs: kb.open, prominence.fr_build,
// prominence.pr_build and remi.load.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/complexity"
	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/prominence"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/server"
	"github.com/remi-kb/remi/internal/wal"
)

// Ladder sample sizes: enough requests for a stable mean per rung while the
// traced run stays well inside its time limit.
const (
	ladderReads   = 200 // single-set requests (hot: 400, so repeats occur)
	ladderBatches = 4   // 64-set requests of the batch workload
	ladderWrites  = 4   // F toggles: upsert, retract, upsert, retract
	ladderLoads   = 3   // repetitions of the set-up rungs
	// batchWorkers mirrors remi-serve's -batch-workers default, so the
	// batch rungs fan sets the way the server does.
	batchWorkers = 4
)

// span is one rung call as the trace file records it.
type span struct {
	Req     string   `json:"req"`
	Rung    string   `json:"rung"`
	Inner   []string `json:"inner,omitempty"` // rungs this one wraps
	StartUS float64  `json:"start_us"`        // since the ladder started
	DurUS   float64  `json:"dur_us"`
}

type ladderOut struct {
	metrics   map[string]metric
	attempted int
	failed    int
	file      string
}

type ladder struct {
	t0        time.Time
	spans     []span
	dur       map[string]map[string]float64 // req → rung → ms
	attempted int
	failed    int
	firstErr  error
	counters  map[string]metric // core effort counters over the sample
	extra     map[string]metric // write-path sizes
}

// time runs fn as one rung call of request req and records its span. A
// failing call counts as a failed operation of the run.
func (l *ladder) time(req, rung string, inner []string, fn func() error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	l.spans = append(l.spans, span{Req: req, Rung: rung, Inner: inner,
		StartUS: float64(start.Sub(l.t0).Microseconds()), DurUS: float64(d.Nanoseconds()) / 1e3})
	if l.dur[req] == nil {
		l.dur[req] = map[string]float64{}
	}
	l.dur[req][rung] = ms(d)
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("%s %s: %w", req, rung, err)
		}
	}
}

// agree fails request req unless every rung gave the same answers.
func (l *ladder) agree(req string, answers map[string]string) {
	var want, first string
	for rung, a := range answers {
		if first == "" {
			want, first = a, rung
			continue
		}
		if a != want {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("%s: %s answered %q, %s answered %q", req, first, want, rung, a)
			}
			return
		}
	}
}

// mean is the mean time of a rung over the requests that called it.
func (l *ladder) mean(rung string) float64 {
	sum, n := 0.0, 0
	for _, rs := range l.dur {
		if d, ok := rs[rung]; ok {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// self is the mean, over the spans of rung that wrap inner rungs, of its
// time minus the time of those rungs in the same request.
func (l *ladder) self(rung string) float64 {
	sum, n := 0.0, 0
	for _, sp := range l.spans {
		if sp.Rung != rung || len(sp.Inner) == 0 {
			continue
		}
		d := sp.DurUS / 1e3
		for _, in := range sp.Inner {
			d -= l.dur[sp.Req][in]
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ladderReq is one request of the replayed sample.
type ladderReq struct {
	op     *op
	sets   [][]string
	metric string
	topK   int
}

// sample replays the workload's own schedule from the same seed and keeps
// its first requests.
func (b *bench) sample() ([]ladderReq, error) {
	_, ops, src, err := b.plan()
	if err != nil {
		return nil, err
	}
	n := ladderReads
	if b.cfg.workload == "hot" {
		n = 2 * ladderReads
	}
	var out []ladderReq
	if src != nil {
		for len(out) < ladderBatches {
			o, err := src()
			if err != nil {
				return nil, err
			}
			out = append(out, reqOf(o))
		}
		return out, nil
	}
	for _, o := range ops[:min(n, len(ops))] {
		out = append(out, reqOf(o))
	}
	return out, nil
}

func reqOf(o *op) ladderReq {
	r := ladderReq{op: o, metric: o.keys[0].metric, topK: o.keys[0].topK}
	for _, k := range o.keys {
		r.sets = append(r.sets, strings.Split(k.set, "\x00"))
	}
	return r
}

// runLadder replays the sample through every rung and derives the
// per-layer metrics; the server counters come from the served run.
func (b *bench) runLadder(out *runOut) (*ladderOut, error) {
	ctx := context.Background()
	l := &ladder{t0: time.Now(), dur: map[string]map[string]float64{}}
	snap := b.fx.snap

	// Set-up rungs: what remi-serve does before /readyz turns 200.
	for i := 0; i < ladderLoads; i++ {
		id := fmt.Sprintf("s%d", i)
		l.time(id, "kb.open", nil, func() error {
			k, err := kb.OpenSnapshot(snap)
			if err != nil {
				return err
			}
			return k.Close()
		})
		k, err := kb.OpenSnapshot(snap)
		if err != nil {
			return nil, err
		}
		l.time(id, "prominence.fr_build", nil, func() error { prominence.Build(k, prominence.Fr); return nil })
		l.time(id, "prominence.pr_build", nil, func() error { prominence.Build(k, prominence.Pr); return nil })
		k.Close()
		l.time(id, "remi.load", []string{"kb.open", "prominence.fr_build"}, func() error {
			sys, err := remi.Load(snap)
			if err != nil {
				return err
			}
			return sys.Close()
		})
	}

	if err := b.readRungs(ctx, l); err != nil {
		return nil, err
	}
	if err := b.writeRungs(ctx, l); err != nil {
		return nil, err
	}
	if l.firstErr != nil {
		fmt.Fprintln(os.Stderr, "remibench: ladder:", l.firstErr)
	}

	m := map[string]metric{}
	for _, r := range []string{
		"kb.open", "prominence.fr_build", "prominence.pr_build", "remi.load",
		"core.queue", "core.mine", "core.mine_warm", "core.batch",
		"facade.mine", "facade.batch", "server.handler", "http.loopback",
		"wal.append", "delta.apply", "delta.materialize", "live.apply", "server.facts", "live.compact",
	} {
		m[r+"_ms"] = metric{l.mean(r), "ms"}
	}
	m["core.search_ms"] = metric{l.mean("core.mine") - l.mean("core.queue"), "ms"}
	for _, r := range []string{"remi.load", "facade.mine", "facade.batch", "server.handler", "http.loopback", "live.apply", "server.facts"} {
		m[r+"_self_ms"] = metric{l.self(r), "ms"}
	}
	for _, more := range []map[string]metric{l.counters, l.extra} {
		for k, v := range more {
			m[k] = v
		}
	}
	st := out.stats
	requests := st.Endpoints["mine"].Requests + st.Endpoints["mine_batch"].Requests
	m["server.result_cache_hit_ratio"] = metric{ratio(float64(st.ResultCache.Hits), float64(st.ResultCache.Hits+st.ResultCache.Misses)), "ratio"}
	m["server.runs_per_request"] = metric{ratio(float64(st.Mining.Runs), float64(requests)), "ratio"}
	m["server.dedup_joined"] = metric{float64(st.Jobs.Joined), "count"}
	m["server.jobs_rejected"] = metric{float64(st.Jobs.Rejected), "count"}
	m["server.avg_run_ms"] = metric{st.Jobs.AvgRunMS, "ms"}

	file, err := b.writeTrace(l.spans)
	if err != nil {
		return nil, err
	}
	return &ladderOut{metrics: m, attempted: l.attempted, failed: l.failed, file: file}, nil
}

// readRungs drives the sample through the core, facade, in-process handler
// and loopback rungs. The in-process server and the launched one start
// empty and see the same requests in the same order, so their result
// caches agree and http.loopback minus server.handler is the cost of HTTP
// and the process boundary alone.
func (b *bench) readRungs(ctx context.Context, l *ladder) error {
	reqs, err := b.sample()
	if err != nil {
		return err
	}
	k, err := kb.OpenSnapshot(b.fx.snap)
	if err != nil {
		return err
	}
	defer k.Close()
	est := map[string]*complexity.Estimator{
		"fr": complexity.New(k, prominence.Build(k, prominence.Fr), complexity.Compressed),
		"pr": complexity.New(k, prominence.Build(k, prominence.Pr), complexity.Compressed),
	}
	sys, err := remi.Load(b.fx.snap)
	if err != nil {
		return err
	}
	defer sys.Close()
	// Build the facade's lazy pr estimator outside the timed rungs, as the
	// served run's warm-up does.
	if _, err := sys.Mine(reqs[0].sets[0], remi.WithMetric(remi.MetricPr)); err != nil {
		return err
	}
	inproc := server.New(sys, serverOptions())
	defer inproc.Close()
	h := inproc.Handler()
	srv, _, err := b.launch()
	if err != nil {
		return err
	}
	defer srv.stop()
	drv := newLoadgen(srv.base, 1)
	defer drv.close()
	if _, err := drv.do(b.readOp(reqs[0].sets[0], "pr")); err != nil {
		return err
	}
	// The warm-up request above is the only one both servers have not
	// seen; send it in process too so the two caches stay identical.
	serveLocal(h, b.readOp(reqs[0].sets[0], "pr"))

	warm := map[string]*core.Miner{}
	cores := &coreCounters{}
	perSet := func(id string, set []string, metric string, topK int) string {
		ids, err := resolve(k, set)
		if err != nil {
			l.failed++
			return ""
		}
		cfg := core.DefaultConfig()
		cfg.TopK = topK
		l.time(id, "core.queue", nil, func() error {
			core.NewMiner(k, est[metric], cfg).RankedCandidates(ids)
			return nil
		})
		var res *core.Result
		l.time(id, "core.mine", nil, func() error {
			res, err = core.NewMiner(k, est[metric], cfg).MineContext(ctx, ids)
			return err
		})
		wkey := fmt.Sprintf("%s/%d", metric, topK)
		if warm[wkey] == nil {
			warm[wkey] = core.NewMiner(k, est[metric], cfg)
		}
		l.time(id, "core.mine_warm", nil, func() error {
			_, err := warm[wkey].MineContext(ctx, ids)
			return err
		})
		var fres *remi.Result
		l.time(id, "facade.mine", []string{"core.mine"}, func() error {
			fres, err = sys.MineContext(ctx, set, facadeOpts(metric, topK)...)
			return err
		})
		if res == nil || fres == nil {
			return ""
		}
		cores.add(res)
		a := coreAnswer(k, res)
		l.agree(id, map[string]string{"core.mine": a, "facade.mine": facadeAnswer(fres)})
		return a
	}

	var single [][]string // sample sets mined one by one, for the batch rungs
	var singleMetric []string
	for i, r := range reqs {
		id := fmt.Sprintf("r%d", i)
		answers := map[string]string{}
		inner := []string{"facade.mine"}
		if r.op.path == "/v1/mine" {
			answers["core.mine"] = perSet(id, r.sets[0], r.metric, r.topK)
			single = append(single, r.sets[0])
			singleMetric = append(singleMetric, r.metric)
		} else {
			inner = []string{"facade.batch"}
			for j, set := range r.sets {
				perSet(fmt.Sprintf("%s.%d", id, j), set, r.metric, r.topK)
			}
			want := b.batchRungs(ctx, l, id, k, est[r.metric], sys, r.sets, r.metric, r.topK)
			answers["facade.batch"] = strings.Join(want, "\n")
		}
		hits, err := cacheHits(h)
		if err != nil {
			return err
		}
		var got []string
		l.time(id, "server.handler", inner, func() error {
			got, err = serveLocal(h, r.op)
			return err
		})
		if now, err := cacheHits(h); err != nil {
			return err
		} else if now > hits {
			// Answered from the result cache: the handler called no facade
			// rung, so its span wraps none and server.handler_self_ms
			// leaves it out.
			l.spans[len(l.spans)-1].Inner = nil
		}
		answers["server.handler"] = strings.Join(got, "\n")
		l.time(id, "http.loopback", []string{"server.handler"}, func() error {
			got, err = drv.do(r.op)
			return err
		})
		answers["http.loopback"] = strings.Join(got, "\n")
		l.agree(id, answers)
	}
	// Single-set workloads: the batch rungs over the sample's sets, 64 at a
	// time per metric, the way an offline caller would send them.
	for _, metric := range []string{"fr", "pr"} {
		var sets [][]string
		for i, s := range single {
			if singleMetric[i] == metric {
				sets = append(sets, s)
			}
		}
		for j := 0; j+batchSets <= len(sets); j += batchSets {
			b.batchRungs(ctx, l, fmt.Sprintf("b%s%d", metric, j/batchSets), k, est[metric], sys, sets[j:j+batchSets], metric, 0)
		}
	}
	l.counters = cores.metrics()
	return nil
}

// batchRungs runs core.batch and facade.batch on one batch of sets and
// returns the facade's answers.
func (b *bench) batchRungs(ctx context.Context, l *ladder, id string, k *kb.KB, est *complexity.Estimator,
	sys *remi.System, sets [][]string, metric string, topK int) []string {
	idSets := make([][]kb.EntID, len(sets))
	for i, s := range sets {
		ids, err := resolve(k, s)
		if err != nil {
			l.failed++
			return nil
		}
		idSets[i] = ids
	}
	cfg := core.DefaultConfig()
	cfg.TopK = topK
	var outs []core.BatchOutcome
	l.time(id, "core.batch", nil, func() error {
		outs = core.NewMiner(k, est, cfg).MineBatch(ctx, idSets, batchWorkers)
		for _, o := range outs {
			if o.Err != nil {
				return o.Err
			}
		}
		return nil
	})
	var br *remi.BatchResult
	l.time(id, "facade.batch", []string{"core.batch"}, func() error {
		var err error
		br, err = sys.MineBatch(ctx, sets, append(facadeOpts(metric, topK), remi.WithBatchConcurrency(batchWorkers))...)
		if err != nil {
			return err
		}
		for _, e := range br.Entries {
			if e.Err != nil {
				return e.Err
			}
		}
		return nil
	})
	if br == nil || len(outs) != len(sets) {
		return nil
	}
	answers := make([]string, len(sets))
	for i, e := range br.Entries {
		if e.Result == nil || outs[i].Result == nil {
			return nil
		}
		answers[i] = facadeAnswer(e.Result)
		l.agree(fmt.Sprintf("%s.%d", id, i), map[string]string{"core.batch": coreAnswer(k, outs[i].Result), "facade.batch": answers[i]})
	}
	return answers
}

// writeRungs toggles F ladderWrites times through the write path's layers,
// each on its own state over the same base snapshot, then compacts.
func (b *bench) writeRungs(ctx context.Context, l *ladder) error {
	dir := filepath.Join(b.work, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wl, _, err := wal.Open(filepath.Join(dir, "rung.wal"))
	if err != nil {
		return err
	}
	defer wl.Close()
	base, err := kb.OpenSnapshot(b.fx.snap)
	if err != nil {
		return err
	}
	defer base.Close()
	ov := delta.New(base)
	live, err := remi.OpenLive(filepath.Join(dir, "live"), "kb", remi.LiveOptions{Source: b.fx.snap})
	if err != nil {
		return err
	}
	defer live.Close()
	served, err := remi.OpenLive(filepath.Join(dir, "served"), server.DefaultKBName, remi.LiveOptions{Source: b.fx.snap})
	if err != nil {
		return err
	}
	defer served.Close()
	inproc := server.New(served.System(), serverOptions())
	defer inproc.Close()
	if err := inproc.BindLive(server.DefaultKBName, served); err != nil {
		return err
	}
	h := inproc.Handler()

	for i := 0; i < ladderWrites; i++ {
		id := fmt.Sprintf("w%d", i)
		retract := i%2 == 1
		ops := b.fx.factOps(retract)
		payload, err := walPayload(ops, id)
		if err != nil {
			return err
		}
		l.time(id, "wal.append", nil, func() error { return wl.Append(ctx, payload) })
		l.time(id, "delta.apply", nil, func() error { _, err := ov.Apply(ops); return err })
		l.time(id, "delta.materialize", nil, func() error {
			m, err := ov.Materialize()
			if err != nil {
				return err
			}
			return m.Close()
		})
		l.time(id, "live.apply", []string{"wal.append", "delta.apply", "delta.materialize"}, func() error {
			_, _, err := live.Apply(ctx, ops, id)
			return err
		})
		l.time(id, "server.facts", []string{"live.apply"}, func() error {
			_, err := serveLocal(h, b.writeOp(retract))
			return err
		})
	}
	walBytes := live.Stats().WalBytes
	l.time("c0", "live.compact", nil, func() error { _, err := live.Compact(ctx); return err })
	l.extra = map[string]metric{"wal.bytes_per_write": {float64(walBytes) / ladderWrites, "bytes"}}
	return nil
}

// walPayload is a facts batch in the WAL record form LiveKB writes: JSON
// ops with N-Triples terms and the acking request id.
func walPayload(ops []delta.Op, requestID string) ([]byte, error) {
	type walOp struct {
		Op string `json:"op"`
		S  string `json:"s"`
		P  string `json:"p"`
		O  string `json:"o"`
	}
	rec := struct {
		RequestID string  `json:"request_id,omitempty"`
		Ops       []walOp `json:"ops"`
	}{RequestID: requestID}
	for _, op := range ops {
		verb := "upsert"
		if op.Retract {
			verb = "retract"
		}
		rec.Ops = append(rec.Ops, walOp{Op: verb, S: op.S.String(), P: op.P.String(), O: op.O.String()})
	}
	return json.Marshal(rec)
}

// serveLocal sends op to an in-process handler and decodes it like the
// loopback load generator does.
func serveLocal(h http.Handler, o *op) ([]string, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body)))
	return decode(o, rec.Code, rec.Body.Bytes())
}

// cacheHits reads the result-cache hit count of an in-process server.
func cacheHits(h http.Handler) (uint64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("/v1/stats: HTTP %d", rec.Code)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("/v1/stats: %w", err)
	}
	return st.ResultCache.Hits, nil
}

// serverOptions are remi-serve's flag defaults, so the in-process server
// behaves like the launched one.
func serverOptions() server.Options {
	return server.Options{
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		DefaultWorkers: 1,
		MaxWorkers:     32,
		MaxTargets:     64,
		MaxBatchSets:   64,
		BatchWorkers:   batchWorkers,
		ResultCache:    1024,
		JobWorkers:     4,
		JobQueueDepth:  64,
		JobTTL:         5 * time.Minute,
	}
}

func facadeOpts(metric string, topK int) []remi.MineOption {
	opts := []remi.MineOption{remi.WithTopK(topK)}
	if metric == "pr" {
		opts = append(opts, remi.WithMetric(remi.MetricPr))
	}
	return opts
}

func resolve(k *kb.KB, set []string) ([]kb.EntID, error) {
	ids := make([]kb.EntID, len(set))
	for i, iri := range set {
		id, ok := k.EntityID(rdf.NewIRI(iri))
		if !ok {
			return nil, fmt.Errorf("unknown entity %s", iri)
		}
		ids[i] = id
	}
	return ids, nil
}

// coreAnswer renders a core result like facadeAnswer renders the facade's.
func coreAnswer(k *kb.KB, r *core.Result) string {
	if !r.Found() {
		return "none"
	}
	parts := make([]string, len(r.Solutions))
	for i, s := range r.Solutions {
		parts[i] = s.Expression.Format(k) + " @ " + fmtBits(s.Bits)
	}
	return strings.Join(parts, " | ")
}

// coreCounters sums the core's own effort counters over the sample.
type coreCounters struct {
	sets, found, timedOut      int
	candidates, visited, tests float64
	hits, misses               uint64
}

func (c *coreCounters) add(r *core.Result) {
	c.sets++
	if r.Found() {
		c.found++
	}
	if r.Stats.TimedOut {
		c.timedOut++
	}
	c.candidates += float64(r.Stats.Candidates)
	c.visited += float64(r.Stats.Visited)
	c.tests += float64(r.Stats.RETests)
	c.hits += r.Stats.CacheHits
	c.misses += r.Stats.CacheMisses
}

func (c *coreCounters) metrics() map[string]metric {
	n := float64(max(c.sets, 1))
	return map[string]metric{
		"core.candidates":     {c.candidates / n, "count"},
		"core.visited":        {c.visited / n, "count"},
		"core.re_tests":       {c.tests / n, "count"},
		"core.eval_hit_ratio": {ratio(float64(c.hits), float64(c.hits+c.misses)), "ratio"},
		"core.found_ratio":    {float64(c.found) / n, "ratio"},
		"core.timed_out":      {float64(c.timedOut), "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the spans as JSON lines under the work directory's
// trace folder and returns the file's path.
func (b *bench) writeTrace(spans []span) (string, error) {
	dir := filepath.Join(b.cfg.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
