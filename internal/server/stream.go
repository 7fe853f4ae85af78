package server

// Streaming routes: /updates feeds Config.Stream, /subscribe serves
// standing queries over SSE, evaluated against the server's backend. Both mount only when Config.Stream
// (and, for /subscribe, Config.Subscriptions) is set — a static-index
// deployment keeps its exact pre-streaming surface.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// maxUpdateBody bounds a POST /updates payload (1 MiB ≈ 20k events) so
// a hostile client cannot balloon the decoder. The growth a body may ask
// for is bounded by stream.Pipeline.GrowNodes: one batch at most doubles
// the graph.
const maxUpdateBody = 1 << 20

// sseWriteTimeout bounds each individual SSE write; a client that stops
// reading for this long is disconnected at the next push or heartbeat.
const sseWriteTimeout = 10 * time.Second

// subscribeHeartbeat is the SSE keep-alive comment interval, which
// doubles as the dead-client detection bound.
const subscribeHeartbeat = 15 * time.Second

// UpdateEvent is one JSON edge event: weight > 0 upserts from→to,
// weight = 0 deletes it.
type UpdateEvent struct {
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	Weight float64 `json:"weight"`
}

// UpdateRequest is the POST /updates payload.
type UpdateRequest struct {
	Updates []UpdateEvent `json:"updates"`
	// NewNodes appends fresh user IDs after the current maximum; the
	// Updates in the same request may reference them already.
	NewNodes int `json:"new_nodes"`
}

// UpdateResponse acknowledges accepted events. Application is
// asynchronous: Pending (events queued for the next batch) and Swaps
// (batches applied so far) are the deployment's, not a shard's — a
// client that sees Swaps rise past the value acknowledged here is
// answered from the updated graph by every shard.
type UpdateResponse struct {
	Accepted int    `json:"accepted"`
	NewNodes int    `json:"new_nodes,omitempty"`
	Pending  int    `json:"pending"`
	Swaps    uint64 `json:"swaps"`
}

// SubscribePush is the JSON payload of one SSE "topk" event: the
// standing query's fresh top-k after batch Seq (0 = the initial answer).
type SubscribePush struct {
	Seq     uint64         `json:"seq"`
	Results []SearchResult `json:"results"`
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if !s.requireReady(w, r) {
		return
	}
	req, err := decodeUpdate(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, "bad update payload: %v", err)
		return
	}
	if req.NewNodes < 0 {
		s.writeErr(w, r, http.StatusBadRequest, "negative new_nodes")
		return
	}
	if len(req.Updates) == 0 && req.NewNodes == 0 {
		s.writeErr(w, r, http.StatusBadRequest, "empty update: no events, no new nodes")
		return
	}
	p := s.cfg.Stream
	if req.NewNodes > 0 {
		if err := p.GrowNodes(req.NewNodes); err != nil {
			s.failUpdate(w, r, err)
			return
		}
	}
	if len(req.Updates) > 0 {
		evs := make([]stream.Event, len(req.Updates))
		for i, u := range req.Updates {
			evs[i] = stream.Event{From: graph.NodeID(u.From), To: graph.NodeID(u.To), Weight: u.Weight}
		}
		if err := p.Submit(evs...); err != nil {
			s.failUpdate(w, r, err)
			return
		}
	}
	s.writeJSON(w, r, http.StatusAccepted, UpdateResponse{
		Accepted: len(req.Updates),
		NewNodes: req.NewNodes,
		Pending:  p.PendingEvents(),
		Swaps:    p.Swaps(),
	})
}

// decodeUpdate reads one UpdateRequest from body: a single JSON object
// with no unknown field and nothing after it but whitespace.
func decodeUpdate(body io.Reader) (UpdateRequest, error) {
	var req UpdateRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return UpdateRequest{}, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return UpdateRequest{}, errors.New("data after the update object")
	}
	return req, nil
}

// failUpdate maps a rejected submission: 503 when the pipeline is
// stopped (shutdown), 400 for event validation.
func (s *Server) failUpdate(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) {
		w.Header().Set("Retry-After", "5")
		s.writeErr(w, r, http.StatusServiceUnavailable, "update pipeline stopped")
		return
	}
	s.writeErr(w, r, http.StatusBadRequest, "rejected: %v", err)
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !s.requireReady(w, r) {
		return
	}
	// Own concurrency bound instead of MaxInflight: a subscription
	// parks for its whole lifetime and would otherwise starve the
	// short-request limiter.
	select {
	case s.subscribers <- struct{}{}:
		defer func() { <-s.subscribers }()
	default:
		w.Header().Set("Retry-After", "1")
		s.writeErr(w, r, http.StatusTooManyRequests, "subscriber capacity reached (%d streams)", s.cfg.MaxSubscribers)
		return
	}
	q, ok := s.parseQuery(w, r)
	if !ok {
		return
	}
	sub, err := s.cfg.Subscriptions.Subscribe(r.Context(), s.eng, q)
	if err != nil {
		switch {
		case errors.Is(err, core.ErrNotReady):
			w.Header().Set("Retry-After", "5")
			s.writeErr(w, r, http.StatusServiceUnavailable, "engine unavailable: %v", err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			s.writeErr(w, r, statusClientClosedRequest, "client closed request")
		default:
			s.writeErr(w, r, http.StatusBadRequest, "subscribe rejected: %v", err)
		}
		return
	}
	defer s.cfg.Subscriptions.Unsubscribe(sub.ID())

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// The listener-level write deadline (pitserve sets WriteTimeout)
	// would sever the stream at a fixed wall-clock point; replace it
	// with a rolling per-write deadline so only a stalled client is cut.
	writeEvent := func(format string, args ...interface{}) error {
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return err
		}
		return rc.Flush()
	}

	hb := time.NewTicker(subscribeHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case push := <-sub.C():
			payload, err := json.Marshal(SubscribePush{Seq: push.Seq, Results: searchRows(push.Results)})
			if err != nil {
				s.cfg.Logger.Printf("%s encode push: %v", RequestID(r.Context()), err)
				return
			}
			if err := writeEvent("event: topk\ndata: %s\n\n", payload); err != nil {
				return
			}
		case <-hb.C:
			// Comment line: keeps intermediaries from idling the
			// connection out and detects gone clients between pushes.
			if err := writeEvent(": hb\n\n"); err != nil {
				return
			}
		}
	}
}
