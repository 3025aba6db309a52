package server

// Admin mutation plane for live KBs: POST /v1/kb/{name}/facts applies a
// mutation batch (acknowledged only after the WAL fsync), and
// POST /v1/admin/compile folds base+delta into a fresh snapshot and
// truncates the WAL. Both endpoints swap the KB's serving System through
// the same generation machinery as reloads, so every cache and in-flight
// dedup key of the old generation becomes unreachable the moment the
// mutation is acknowledged.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/rdf"
)

// errNotLive rejects mutation-plane requests against a KB registered
// without a WAL-backed delta layer; mapped to a 409.
var errNotLive = errors.New("knowledge base is not live (no WAL-backed delta layer)")

// errCompacting rejects a compile while another compaction of the same KB
// is still running; mapped to a 409.
var errCompacting = errors.New("compaction already in progress")

// maxFactOps caps the ops of one mutation batch; the request body cap
// already bounds bytes, this bounds the per-op work (parse, validate,
// mirror) independently of op size.
const maxFactOps = 10000

// AddLiveKB registers a live (mutable) knowledge base under name: its
// current materialized System serves reads, and the admin mutation plane
// (POST /v1/kb/{name}/facts, POST /v1/admin/compile) is enabled for it.
func (s *Server) AddLiveKB(name string, live *remi.LiveKB) error {
	if err := s.AddKB(name, live.System()); err != nil {
		return err
	}
	return s.BindLive(name, live)
}

// BindLive attaches a live KB's mutation plane to an already-registered
// entry (used when the live KB is the server's default, which New
// registers before BindLive can run).
func (s *Server) BindLive(name string, live *remi.LiveKB) error {
	e, err := s.lookupKB(name)
	if err != nil {
		return err
	}
	e.live = live
	return nil
}

// retire schedules the Close of a swapped-out System after the configured
// grace period. With RetireGrace zero (the default) old generations are
// never closed — their mappings stay pinned for the process lifetime,
// which is always safe — so only deployments that opt in reclaim mappings.
// The grace must exceed the longest possible mining run (MaxTimeout plus
// watchdog slack): a run still holding the old System when it closes
// would read unmapped memory.
func (s *Server) retire(old *remi.System) {
	if old == nil || s.opts.RetireGrace <= 0 {
		return
	}
	time.AfterFunc(s.opts.RetireGrace, func() { _ = old.Close() })
}

// parseFactOps decodes the wire batch into delta ops: terms are N-Triples
// encoded, op is "upsert" (default) or "retract".
func parseFactOps(in []FactOp) ([]delta.Op, error) {
	ops := make([]delta.Op, len(in))
	for i, f := range in {
		switch f.Op {
		case "", "upsert":
		case "retract":
			ops[i].Retract = true
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (upsert|retract)", i, f.Op)
		}
		var err error
		if ops[i].S, err = rdf.ParseTerm(f.S); err != nil {
			return nil, fmt.Errorf("op %d: subject: %w", i, err)
		}
		if ops[i].P, err = rdf.ParseTerm(f.P); err != nil {
			return nil, fmt.Errorf("op %d: predicate: %w", i, err)
		}
		if ops[i].O, err = rdf.ParseTerm(f.O); err != nil {
			return nil, fmt.Errorf("op %d: object: %w", i, err)
		}
	}
	return ops, nil
}

// handleFacts is POST /v1/kb/{name}/facts (and /v1/facts with a kb field):
// one durable mutation batch. The 200 is the ack — it is written only
// after the WAL fsync succeeded and the new generation is serving.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	s.cFacts.requests.Add(1)
	var q FactsRequest
	if !s.decodeBody(w, r, &s.cFacts, &q) {
		return
	}
	e, err := s.kbFromRequest(r, q.KB)
	if err != nil {
		s.writeError(w, &s.cFacts, errStatus(err), err)
		return
	}
	if e.live == nil {
		s.writeError(w, &s.cFacts, http.StatusConflict, fmt.Errorf("%w: %q", errNotLive, e.name))
		return
	}
	if len(q.Ops) == 0 {
		s.writeError(w, &s.cFacts, http.StatusBadRequest, errors.New("ops is required"))
		return
	}
	if len(q.Ops) > maxFactOps {
		s.writeError(w, &s.cFacts, http.StatusBadRequest,
			fmt.Errorf("%d ops exceed the batch limit of %d", len(q.Ops), maxFactOps))
		return
	}
	ops, err := parseFactOps(q.Ops)
	if err != nil {
		s.writeError(w, &s.cFacts, http.StatusBadRequest, err)
		return
	}
	// reloadMu serializes this swap against reloads and compactions of the
	// same KB, and orders concurrent mutation batches: the System swapped
	// in always reflects every batch acked before it.
	e.reloadMu.Lock()
	sys, changed, err := e.live.Apply(r.Context(), ops, requestIDOf(r))
	if err != nil {
		e.reloadMu.Unlock()
		status := http.StatusInternalServerError
		if errors.Is(err, delta.ErrInvalidOp) {
			status = http.StatusBadRequest
		}
		s.writeError(w, &s.cFacts, status, err)
		return
	}
	old := e.sys()
	e.swapIn(sys)
	gen := e.generation.Load()
	e.reloadMu.Unlock()
	s.retire(old)
	st := e.live.Stats()
	writeJSON(w, http.StatusOK, FactsResponse{
		KB:         e.name,
		Applied:    len(ops),
		Changed:    changed,
		Generation: gen,
		WalBytes:   st.WalBytes,
		WalRecords: st.WalRecords,
		RequestID:  requestIDOf(r),
	})
}

// handleCompile is POST /v1/admin/compile (and /v1/kb/{name}/admin/compile):
// fold base+delta into a new snapshot, truncate the WAL, swap the compacted
// generation in. Concurrent compiles of the same KB answer 409; a failed
// compaction changes nothing visible (the old generation keeps serving and
// the WAL still holds every acked mutation).
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.cCompile.requests.Add(1)
	var q CompileRequest
	if r.ContentLength != 0 {
		if !s.decodeBody(w, r, &s.cCompile, &q) {
			return
		}
	}
	e, err := s.kbFromRequest(r, q.KB)
	if err != nil {
		s.writeError(w, &s.cCompile, errStatus(err), err)
		return
	}
	if e.live == nil {
		s.writeError(w, &s.cCompile, http.StatusConflict, fmt.Errorf("%w: %q", errNotLive, e.name))
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		s.writeError(w, &s.cCompile, http.StatusConflict, fmt.Errorf("%w for KB %q", errCompacting, e.name))
		return
	}
	defer e.compacting.Store(false)
	sys, err := e.live.Compact(r.Context())
	if err != nil {
		s.writeError(w, &s.cCompile, http.StatusInternalServerError, err)
		return
	}
	e.reloadMu.Lock()
	old := e.sys()
	e.swapIn(sys)
	gen := e.generation.Load()
	e.lastCompactionGen.Store(gen)
	e.reloadMu.Unlock()
	s.retire(old)
	st := e.live.Stats()
	writeJSON(w, http.StatusOK, CompileResponse{
		KB:          e.name,
		Generation:  gen,
		Compactions: st.Compactions,
		WalBytes:    st.WalBytes,
		RequestID:   requestIDOf(r),
	})
}
