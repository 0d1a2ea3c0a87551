package server

import (
	"encoding/json"
	"net/http"

	"talign/internal/faultinject"
	"talign/internal/tuple"
	"talign/internal/wire"
)

// handleQueryStream is the wire-level row-streaming endpoint: it runs the
// request under the request's context (client disconnect cancels the
// running plan server-side) and writes the result as chunked NDJSON
// frames — a schema frame, one rows frame per executor batch, and a
// trailing status (or error) frame — flushing after every frame so rows
// reach the client as the executor produces them.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	req, params, err := decodeRequest(w, r)
	if err != nil {
		httpError(w, err)
		return
	}
	rs, err := s.StreamBatch(r.Context(), req.Session, req.Stmt, req.SQL, params, req.Batch)
	if err != nil {
		// Nothing was sent yet: report the failure as a plain structured
		// HTTP error, exactly like the buffered endpoint.
		httpError(w, err)
		return
	}
	defer rs.Close()
	s.streams.Add(1)
	WriteFrameStream(w, rs)
}

// WriteFrameStream writes a RowStream as chunked NDJSON frames — schema,
// one rows frame per batch, a terminal status or error frame — flushing
// after every frame. It is the one encoder of the client row-stream wire
// shape (/query/stream); the coordinator-to-worker /fragment hop sends
// the same frame sequence as binary frames (see package wire). The
// caller Closes rs.
func WriteFrameStream(w http.ResponseWriter, rs *RowStream) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // streaming through proxies
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	StreamFrames(rs, func(f wire.Frame, batch []tuple.Tuple) bool {
		if batch != nil {
			f.Rows = make([][]any, len(batch))
			for i, t := range batch {
				row := make([]any, 0, len(t.Vals)+2)
				for _, v := range t.Vals {
					row = append(row, wire.Cell(v))
				}
				f.Rows[i] = append(row, t.T.Ts, t.T.Te)
			}
		}
		if err := enc.Encode(f); err != nil {
			return false // client is gone; the deferred Close cancels upstream
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
}

// StreamFrames drives rs through the frame sequence every row-stream
// encoding shares: a plan frame then a status frame for plan-only
// statements; otherwise a schema frame, one rows frame per executor
// batch (the batch passed beside a Frame whose Rows are left empty for
// the encoding to fill) and a terminal status or error frame. send
// writes one frame and reports whether the peer is still there. The
// caller Closes rs.
func StreamFrames(rs *RowStream, send func(f wire.Frame, batch []tuple.Tuple) bool) {
	if rs.Plan() != "" {
		if send(wire.Frame{Frame: wire.FramePlan, Plan: rs.Plan(), CacheHit: rs.CacheHit()}, nil) {
			send(wire.Frame{Frame: wire.FrameStatus}, nil)
		}
		return
	}
	if !send(wire.Frame{Frame: wire.FrameSchema, Columns: rs.Columns(), Types: rs.Types(), CacheHit: rs.CacheHit()}, nil) {
		return
	}
	var total int64
	for {
		batch, err := rs.Next()
		if err != nil {
			send(wire.Frame{Frame: wire.FrameError, Error: wire.FromError(err, errorCode(err))}, nil)
			return
		}
		if len(batch) == 0 {
			send(wire.Frame{Frame: wire.FrameStatus, RowCount: total}, nil)
			return
		}
		total += int64(len(batch))
		if !send(wire.Frame{Frame: wire.FrameRows}, batch) {
			return
		}
		// Chaos-test seam: fail (or stall) the response mid-stream, once
		// per batch, after that batch's rows are already on the wire.
		if err := faultinject.Hit("server.stream.rows"); err != nil {
			send(wire.Frame{Frame: wire.FrameError, Error: wire.FromError(err, errorCode(err))}, nil)
			return
		}
	}
}
