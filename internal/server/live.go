package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/agg"
)

// ---------------------------------------------------------------------------
// GET /subscribe
// ---------------------------------------------------------------------------

// subscribeDone is the terminal NDJSON line / SSE "done" event written when
// a limit-bounded subscription completes.
type subscribeDone struct {
	Done     bool   `json:"done"`
	Streamed int    `json:"streamed"`
	Epoch    uint64 `json:"epoch"`
}

// handleSubscribe serves GET /subscribe: a live push stream of re-evaluated
// results for one session, as Server-Sent Events or NDJSON.
//
// Query parameters:
//
//	session    target session name (required)
//	kind       value | point | count | delta (default value)
//	args       comma-separated point arguments (kind=point)
//	from       resume epoch: the last epoch the client has seen; the
//	           Last-Event-ID header (SSE auto-reconnect) takes precedence
//	mode       sse | ndjson (default by Accept: text/event-stream → sse)
//	heartbeat  keep-alive interval (Go duration, default 15s, min 100ms)
//	limit      close the stream after this many updates (0 = unbounded)
//
// Every committed batch or point write re-evaluates the subscribed quantity
// once per distinct key and pushes it, as the JSON form of the agg.Update it
// is (the SSE data field and the NDJSON line alike); slow clients coalesce
// (latest epoch wins) and never stall the session's writers.  Client
// disconnect cancels the subscription server-side (counted in the canceled
// stat).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	h, err := s.Session(q.Get("session"))
	if err != nil {
		s.writeError(w, err)
		return
	}

	kind := q.Get("kind")
	if kind == "" {
		kind = "value"
	}
	var opts []agg.SubscribeOption
	switch kind {
	case "value":
	case "point":
		args, err := parseArgs(q.Get("args"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		opts = append(opts, agg.SubscribePoint(args...))
	case "count":
		opts = append(opts, agg.SubscribeCount())
	case "delta":
		opts = append(opts, agg.SubscribeDelta())
	default:
		s.writeError(w, fmt.Errorf("unknown kind %q (value, point, count, delta): %w", kind, agg.ErrArgument))
		return
	}
	raw := r.Header.Get("Last-Event-ID") // SSE auto-reconnect wins over ?from=
	if raw == "" {
		raw = q.Get("from")
	}
	if raw != "" {
		from, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeError(w, fmt.Errorf("invalid resume epoch %q: %w", raw, agg.ErrArgument))
			return
		}
		opts = append(opts, agg.SubscribeFrom(from))
	}
	heartbeat := 15 * time.Second
	if raw := q.Get("heartbeat"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			s.writeError(w, fmt.Errorf("invalid heartbeat %q: %w", raw, agg.ErrArgument))
			return
		}
		if d < 100*time.Millisecond {
			d = 100 * time.Millisecond
		}
		heartbeat = d
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			s.writeError(w, fmt.Errorf("invalid limit %q: %w", raw, agg.ErrArgument))
			return
		}
		limit = n
	}
	sse := false
	switch mode := q.Get("mode"); mode {
	case "sse":
		sse = true
	case "", "ndjson":
		sse = mode == "" && strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	default:
		s.writeError(w, fmt.Errorf("unknown mode %q (sse, ndjson): %w", mode, agg.ErrArgument))
		return
	}

	// Validate the subscription before committing a 200: probing with an
	// already-canceled context surfaces argument errors synchronously (the
	// facade validates before it registers anything) and otherwise fails
	// with context.Canceled, so real streams still start from the loop below.
	probeCtx, cancelProbe := context.WithCancel(context.Background())
	cancelProbe()
	for _, perr := range h.Subscribe(probeCtx, opts...) {
		if perr != nil && !errors.Is(perr, context.Canceled) {
			s.writeError(w, perr)
			return
		}
		break
	}

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	s.ctr[cSubscriptions].Add(1)
	s.ctr[cSubscribers].Add(1)
	defer s.ctr[cSubscribers].Add(-1)
	annotate(r, slog.String("session", h.Name()), slog.String("kind", kind))

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	writeEvent := func(event string, v any) error {
		u, isUpdate := v.(agg.Update)
		if isUpdate && u.Kind == "count" {
			// Update's count is omitempty, for the kinds that carry none;
			// a count of no answers is still a count.
			v = struct {
				agg.Update
				Count int64 `json:"count"`
			}{u, u.Count}
		}
		if sse {
			if isUpdate {
				if _, err := fmt.Fprintf(w, "id: %d\n", u.Epoch); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: ", event); err != nil {
				return err
			}
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
		if sse {
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return err
			}
		}
		flush()
		return nil
	}

	// The facade iterator runs in its own goroutine; the handler selects
	// over its updates and the heartbeat so a silent stream still proves the
	// connection is alive.
	type item struct {
		u   agg.Update
		err error
	}
	ctx := r.Context()
	ch := make(chan item, 1)
	go func() {
		defer close(ch)
		for u, err := range h.Subscribe(ctx, opts...) {
			select {
			case ch <- item{u, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()

	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	streamed := 0
	lastEpoch := uint64(0)
	for {
		select {
		case <-ctx.Done():
			s.ctr[cCanceled].Add(1)
			return
		case <-ticker.C:
			var err error
			if sse {
				_, err = fmt.Fprint(w, ": hb\n\n")
				flush()
			} else {
				err = writeEvent("", map[string]bool{"heartbeat": true})
			}
			if err != nil {
				s.ctr[cCanceled].Add(1)
				return
			}
		case it, ok := <-ch:
			if !ok {
				// The iterator's goroutine saw the cancellation first and
				// closed the channel without an item: the same disconnect as
				// the ctx.Done() case, which select may not have picked.
				s.canceled(ctx.Err())
				return
			}
			if it.err != nil {
				if s.canceled(it.err) {
					return
				}
				s.ctr[cErrors].Add(1)
				_ = writeEvent("error", ErrorBody{Error: it.err.Error(), Code: agg.ErrorCode(it.err)})
				return
			}
			u := it.u
			if err := writeEvent("update", u); err != nil {
				s.ctr[cCanceled].Add(1)
				return
			}
			s.ctr[cPushes].Add(1)
			s.ctr[cPushCoalesced].Add(int64(u.Coalesced))
			if u.Lag > 0 {
				s.pushHist.Observe(u.Lag)
			}
			streamed++
			lastEpoch = u.Epoch
			if limit > 0 && streamed >= limit {
				_ = writeEvent("done", subscribeDone{Done: true, Streamed: streamed, Epoch: lastEpoch})
				annotate(r, slog.Int("streamed", streamed))
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// POST /ingest
// ---------------------------------------------------------------------------

// ingestAck is one NDJSON line of the /ingest response: a periodic epoch
// acknowledgement while the change stream applies, then a final summary
// with Done set (or an Error if the stream failed mid-way).
type ingestAck struct {
	Applied int64  `json:"applied"`
	Waves   int64  `json:"waves,omitempty"`
	Epoch   uint64 `json:"epoch"`
	Done    bool   `json:"done,omitempty"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
	AtLine  int64  `json:"atLine,omitempty"`
}

// handleIngest serves POST /ingest?session=S[&wave=N][&ack=K]: a CDC-style
// bulk loader that streams NDJSON tuple/weight changes (the /update line
// format) into a session.  Lines are coalesced into atomic ApplyBatch waves
// of up to `wave` changes (default 512), so gates shared by several changes
// are recomputed once per wave instead of once per change; every `ack`-th
// wave (default every wave) the response streams an epoch acknowledgement
// the client can use as a CDC checkpoint.
//
// A malformed line or rejected wave stops the ingest at that point: applied
// waves stay committed (each wave is all-or-nothing, the stream is not), and
// the terminal line reports the failing line number.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	h, err := s.Session(q.Get("session"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	wave := 512
	if raw := q.Get("wave"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeError(w, fmt.Errorf("invalid wave size %q: %w", raw, agg.ErrArgument))
			return
		}
		if n > 1<<16 {
			n = 1 << 16
		}
		wave = n
	}
	ackEvery := 1
	if raw := q.Get("ack"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeError(w, fmt.Errorf("invalid ack interval %q: %w", raw, agg.ErrArgument))
			return
		}
		ackEvery = n
	}
	annotate(r, slog.String("session", h.Name()))

	// Acks interleave with reading the change stream, so the connection must
	// be full-duplex: without this, writing the response makes the HTTP/1
	// server stop reading the request body.
	_ = http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)

	var applied, waves, line int64
	fail := func(err error) {
		if s.canceled(err) {
			return
		}
		s.ctr[cErrors].Add(1)
		_ = enc.Encode(ingestAck{
			Applied: applied, Waves: waves, Epoch: h.Epoch(),
			Error: err.Error(), Code: agg.ErrorCode(err), AtLine: line,
		})
	}

	changes := make([]agg.Change, 0, wave)
	commit := func() error {
		if len(changes) == 0 {
			return nil
		}
		if err := h.ApplyBatch(changes); err != nil {
			return err
		}
		applied += int64(len(changes))
		waves++
		s.ctr[cIngestedChanges].Add(int64(len(changes)))
		s.ctr[cIngestWaves].Add(1)
		changes = changes[:0]
		if waves%int64(ackEvery) == 0 {
			if err := enc.Encode(ingestAck{Applied: applied, Waves: waves, Epoch: h.Epoch()}); err != nil {
				return fmt.Errorf("writing ack: %w", err)
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return nil
	}

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var spec updateSpec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			fail(fmt.Errorf("line %d: %w: %v", line, agg.ErrArgument, err))
			return
		}
		changes = append(changes, spec.change())
		if len(changes) >= wave {
			if err := commit(); err != nil {
				fail(err)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		// A torn body usually means the client went away mid-stream.
		if r.Context().Err() != nil {
			s.ctr[cCanceled].Add(1)
			return
		}
		fail(fmt.Errorf("reading change stream: %w: %v", agg.ErrArgument, err))
		return
	}
	if err := commit(); err != nil {
		fail(err)
		return
	}
	s.ctr[cIngests].Add(1)
	annotate(r, slog.Int64("applied", applied), slog.Int64("waves", waves))
	_ = enc.Encode(ingestAck{Applied: applied, Waves: waves, Epoch: h.Epoch(), Done: true})
}

func parseArgs(raw string) ([]int, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid args %q: %w", raw, agg.ErrArgument)
		}
		out[i] = v
	}
	return out, nil
}
