package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server/faults"
	"github.com/remi-kb/remi/internal/server/jobs"
)

// This file is the asynchronous face of the job subsystem:
//
//	POST /v1/mine:async    submit (single or batch) → 202 + job document
//	GET  /v1/jobs/{id}     poll a job (result inline once done)
//	DELETE /v1/jobs/{id}   cancel a job
//	GET  /v1/jobs/{id}/stream  replay + follow a job's event log
//	POST /v1/mine:stream   blocking submit, streamed response (NDJSON/SSE)
//
// Async and blocking requests share everything: the same batch plan (a
// `targets` body is a plan of one set), the same flight keys (an async job
// joins a blocking run in flight and vice versa), the same worker pool and
// admission control. Only the shape of the answer differs.

// jobResponse renders one job as its wire document.
func (s *Server) jobResponse(j *jobs.Job) *JobResponse {
	out := &JobResponse{ID: j.ID(), Kind: j.Kind()}
	if m, ok := j.Meta().(jobMeta); ok {
		out.KB = m.kb
		out.RequestID = m.requestID
	}
	created, started, finished := j.Times()
	out.CreatedUnixNS = created.UnixNano()
	if !started.IsZero() {
		out.StartedUnixNS = started.UnixNano()
	}
	if !finished.IsZero() {
		out.FinishedUnixNS = finished.UnixNano()
	}
	if v, err, ok := j.Result(); ok {
		switch {
		case err != nil:
			out.Error = err.Error()
			out.Status = errStatus(err)
		case j.Kind() == jobKindMineBatch:
			if br, ok := v.(*BatchMineResponse); ok {
				out.Batch = br
			}
		default:
			switch v := v.(type) {
			case *remi.Result:
				out.Result = wireResult(v, false, false)
			case *MineResponse:
				out.Result = v
			}
		}
	}
	// State read after Result: once a result is visible the state is
	// terminal and stable, so the document cannot claim "running" with a
	// result attached.
	out.State = j.State().String()
	return out
}

// decodeAsync decodes and shape-checks a mine:async / mine:stream body.
func (s *Server) decodeAsync(w http.ResponseWriter, r *http.Request, c *counter) (*AsyncMineRequest, bool) {
	var q AsyncMineRequest
	if !s.decodeBody(w, r, c, &q) {
		return nil, false
	}
	if (len(q.Targets) == 0) == (len(q.Sets) == 0) {
		s.writeError(w, c, http.StatusBadRequest,
			errors.New("exactly one of targets (single mine) or sets (batch) is required"))
		return nil, false
	}
	return &q, true
}

func (s *Server) handleMineAsync(w http.ResponseWriter, r *http.Request) {
	s.cMineAsync.requests.Add(1)
	q, ok := s.decodeAsync(w, r, &s.cMineAsync)
	if !ok {
		return
	}
	bq, single := q.batch()
	if !s.admitMining(w, r, &s.cMineAsync, len(bq.Sets)) {
		return
	}
	p := s.buildBatchPlan(w, r, &s.cMineAsync, &bq, single)
	switch {
	case p == nil: // answered by buildBatchPlan
	case !single:
		s.asyncBatch(w, p)
	case p.items[0].Response != nil:
		// Uniform client workflow: a cache hit still yields a pollable job —
		// born done, unkeyed (nothing is in flight to join). Job documents
		// do not flag cache hits.
		j, _ := s.jobs.External(jobs.SubmitOpts{
			Kind: jobKindMine, Meta: jobMeta{kb: p.e.name, requestID: p.reqID}, Retain: true, Detached: true,
		})
		res := *p.items[0].Response
		res.Cached = false
		j.Complete(&res, nil)
		writeJSON(w, http.StatusAccepted, s.jobResponse(j))
	default:
		// The set's member job is the client's handle. This request's
		// references drop right away — retention, not interest, keeps an
		// async job alive.
		p.retain = true
		if s.submitPlan(w, &s.cMineAsync, p) != nil {
			return
		}
		j := p.waits[0]
		s.releaseBatch(p)
		writeJSON(w, http.StatusAccepted, s.jobResponse(j))
	}
}

// batchKey derives the parent flight key of an async batch from its member
// keys, so two identical concurrent async batches share one job. Member
// keys are length-prefixed internally, so joining them cannot collide with
// a different partition of the same bytes; the prefix keeps the parent out
// of the single-mine key space.
func batchKey(p *batchPlan) string {
	var b strings.Builder
	b.WriteString("batch\x00")
	for _, k := range p.keyOf {
		b.WriteString(k)
		b.WriteByte('\x00')
	}
	return b.String()
}

func (s *Server) asyncBatch(w http.ResponseWriter, p *batchPlan) {
	// The parent job is the client's handle: retained, completed by the
	// coordinator with the assembled batch document. An identical async
	// batch already in flight is joined instead of re-planned.
	parent, joined := s.jobs.External(jobs.SubmitOpts{
		Key:    batchKey(p),
		Kind:   jobKindMineBatch,
		Meta:   jobMeta{kb: p.e.name, requestID: p.reqID},
		Retain: true, Detached: true,
	})
	if joined {
		writeJSON(w, http.StatusAccepted, s.jobResponse(parent))
		return
	}
	if err := s.submitPlan(w, &s.cMineAsync, p); err != nil {
		// Admission failed: finalize the parent so its flight key retires
		// and nothing dangles (it ages out with the TTL).
		parent.Complete(nil, err)
		return
	}
	go s.runBatchCoordinator(parent, p)
	writeJSON(w, http.StatusAccepted, s.jobResponse(parent))
}

// entryEvent wires one batch entry as a stream event.
func entryEvent(i int, item BatchMineItem) StreamEvent {
	idx := i
	return StreamEvent{Event: streamEntry, Index: &idx,
		Response: item.Response, Error: item.Error, Status: item.Status}
}

// runBatchCoordinator drives an async batch off the request goroutine: it
// streams entry completions into the parent's event log, assembles the
// final batch document, and completes the parent. Waiting happens here —
// never on a pool worker — and under the parent's context, so cancelling
// the parent (DELETE /v1/jobs/{id}) abandons the members and, through
// them, the mining phase.
func (s *Server) runBatchCoordinator(parent *jobs.Job, p *batchPlan) {
	if s.emitEntries(parent.Context(), p, func(ev StreamEvent) { parent.Emit(streamEntry, ev) }) != nil {
		return // parent cancelled; Complete would be a no-op anyway
	}
	parent.Complete(&BatchMineResponse{KB: p.e.name, Results: p.items, Stats: p.agg}, nil)
}

// emitEntries delivers a batch plan's outcomes to emit as entry events:
// entries known before mining (validation failures, cache hits) first,
// then member completions in finish order, then the in-batch repeats once
// their first occurrence is known. It returns ctx.Err() when ctx ended
// before every member finished.
func (s *Server) emitEntries(ctx context.Context, p *batchPlan, emit func(StreamEvent)) error {
	for i := range p.items {
		if p.items[i].Response != nil || p.items[i].Error != "" {
			emit(entryEvent(i, p.items[i]))
		}
	}
	ctxErr := s.collectBatch(ctx, p, func(i int, item BatchMineItem) {
		p.fill(i, item)
		emit(entryEvent(i, item))
	})
	s.finishBatch(ctx, p)
	if ctxErr != nil {
		return ctxErr
	}
	for i := range p.items {
		if key := p.keyOf[i]; key != "" && p.firstOfKey[key] != i {
			emit(entryEvent(i, p.items[i]))
		}
	}
	return nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.cJobs.requests.Add(1)
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &s.cJobs, http.StatusNotFound,
			fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponse(j))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	s.cJobs.requests.Add(1)
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &s.cJobs, http.StatusNotFound,
			fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	if prev, ok := s.jobs.Cancel(j); !ok && prev != jobs.StateCancelled {
		// Done or failed: too late to cancel. Cancelling a cancelled job is
		// idempotent and falls through to the 200 below.
		s.writeError(w, &s.cJobs, http.StatusConflict,
			fmt.Errorf("job %s already finished (%s)", j.ID(), prev))
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponse(j))
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	s.cJobs.requests.Add(1)
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &s.cJobs, http.StatusNotFound,
			fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	// The subscriber's reference keeps the watched run from being abandoned
	// under it (a retained job would survive anyway; a joined blocking run
	// might not).
	s.jobs.Attach(j)
	defer s.jobs.Release(j)
	sw, ok := s.newStream(w, r, &s.cJobs)
	if !ok {
		return
	}
	if !s.followEvents(r.Context(), j, sw) {
		return // client went away mid-stream
	}
	sw.send(StreamEvent{Event: streamDone, Job: s.jobResponse(j)})
}

// handleMineStream is the streaming twin of the blocking endpoints. A batch
// streams one entry event per input set as each finishes, then a done
// event with the aggregate stats. A single streams its set's progress
// events while the search runs, then the result. After the first event
// errors travel in-band: the 200 is already on the wire.
func (s *Server) handleMineStream(w http.ResponseWriter, r *http.Request) {
	s.cMineStream.requests.Add(1)
	q, ok := s.decodeAsync(w, r, &s.cMineStream)
	if !ok {
		return
	}
	bq, single := q.batch()
	if !s.admitMining(w, r, &s.cMineStream, len(bq.Sets)) {
		return
	}
	p := s.buildBatchPlan(w, r, &s.cMineStream, &bq, single)
	if p == nil || s.submitPlan(w, &s.cMineStream, p) != nil {
		return
	}
	sw, ok := s.newStream(w, r, &s.cMineStream)
	if !ok {
		s.releaseBatch(p)
		return
	}
	ctx := r.Context()
	if !single {
		if s.emitEntries(ctx, p, func(ev StreamEvent) { sw.send(ev) }) == nil {
			sw.send(StreamEvent{Event: streamDone, KB: p.e.name, Stats: &p.agg})
		}
		return
	}
	if j := p.waits[0]; j != nil && !s.followEvents(ctx, j, sw) {
		s.releaseBatch(p)
		return
	}
	ctxErr := s.collectBatch(ctx, p, p.fill)
	s.finishBatch(ctx, p)
	switch item := p.items[0]; {
	case ctxErr != nil: // the client went away: nobody is reading
	case item.Response == nil:
		sw.send(StreamEvent{Event: streamError, Error: item.Error, Status: item.Status})
	default:
		sw.send(StreamEvent{Event: streamResult, Response: item.Response})
	}
}

// followEvents replays the job's event log onto the stream and follows it
// until the job finishes; false means the client's context ended first (or
// the client stopped reading).
func (s *Server) followEvents(ctx context.Context, j *jobs.Job, sw *streamWriter) bool {
	cursor := 0
	for {
		evs, next, finished, wake := j.EventsSince(cursor)
		cursor = next
		for _, ev := range evs {
			if ev.Type == jobs.EventTruncated {
				// A lapped follower learns about the gap in-band instead of
				// silently resuming mid-log.
				if n, ok := ev.Data.(int); ok {
					if !sw.send(StreamEvent{Event: streamTruncated, Dropped: n}) {
						return false
					}
				}
				continue
			}
			if se, ok := ev.Data.(StreamEvent); ok {
				if !sw.send(se) {
					return false
				}
			}
		}
		if finished {
			return true
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return false
		}
	}
}

// streamWriter writes a response as NDJSON lines (default) or SSE frames
// (Accept: text/event-stream), flushing per event so clients see progress
// live.
type streamWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
}

// newStream starts a streaming response; call it only once every failure
// that deserves a real HTTP status has been ruled out (after the first
// event, errors travel in-band).
func (s *Server) newStream(w http.ResponseWriter, r *http.Request, c *counter) (*streamWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, c, http.StatusInternalServerError,
			errors.New("streaming is unsupported by the underlying connection"))
		return nil, false
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &streamWriter{w: w, fl: fl, sse: sse}, true
}

// send writes one event; false reports a dead client.
func (sw *streamWriter) send(ev StreamEvent) bool {
	_ = faults.Fire(context.Background(), faults.StreamStall)
	payload, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	if sw.sse {
		if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", ev.Event, payload); err != nil {
			return false
		}
	} else {
		if _, err := sw.w.Write(append(payload, '\n')); err != nil {
			return false
		}
	}
	sw.fl.Flush()
	return true
}
