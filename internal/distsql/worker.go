package distsql

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/tuple"
	"talign/internal/value"
	"talign/internal/wire"
)

// Handler wraps a worker's server with the fragment endpoint: the full
// single-node HTTP surface stays mounted (health probes, /metrics,
// direct debugging queries), and POST /fragment adds the
// coordinator-facing operations — exec (a streamed shard-local query,
// answered in binary frames), stage/unstage (shard registration for
// CREATE and the repartitioning shuffle) and analyze (statistics
// broadcast). Request bodies are binary frame sequences (see package
// wire).
func Handler(srv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /fragment", func(w http.ResponseWriter, r *http.Request) {
		// Every frame is read through its own http.MaxBytesReader: the
		// body is bounded frame by frame, so a stage of any size streams
		// through while no single frame can exceed its kind's bound.
		fr := wire.NewFrameReader(nil)
		next := func() (wire.FrameKind, []byte, error) {
			fr.Reset(http.MaxBytesReader(w, r.Body, wire.FrameHeaderLen+wire.MaxRowsFrame))
			return fr.Next()
		}
		var req wire.FragmentRequest
		kind, payload, err := next()
		switch {
		case err == io.EOF:
			err = requestError("distsql: empty fragment body")
		case err == nil && kind != wire.KindRequest:
			err = requestError("distsql: fragment body opens with frame kind %d, want a request frame", kind)
		case err == nil:
			err = wire.UnmarshalFrame(payload, &req)
		}
		if err != nil {
			server.HTTPError(w, err)
			return
		}
		if err := faultinject.Hit("distsql.fragment"); err != nil {
			server.HTTPError(w, err)
			return
		}
		switch req.Op {
		case wire.FragmentExec:
			params := make([]value.Value, len(req.Params))
			for i, p := range req.Params {
				typ := ""
				if i < len(req.ParamTypes) {
					typ = req.ParamTypes[i]
				}
				v, err := wire.ValueAs(p, typ)
				if err != nil {
					server.HTTPError(w, requestError("distsql: fragment param $%d: %v", i+1, err))
					return
				}
				params[i] = v
			}
			rs, err := srv.StreamBatch(r.Context(), "", "", req.SQL, params, req.Batch)
			if err != nil {
				server.HTTPError(w, err)
				return
			}
			defer rs.Close()
			writeExecStream(w, rs)
		case wire.FragmentStage:
			rel, err := readStage(next)
			if err != nil {
				server.HTTPError(w, err)
				return
			}
			// Built directly rather than via Append: a staged shard may carry
			// all-ω columns typed KindNull by the coordinator's local plan,
			// and Append's kind check would reject the non-null originals.
			srv.Catalog().Register(req.Name, rel)
			writeAck(w, wire.FragmentAck{OK: true, Rows: int64(rel.Len())})
		case wire.FragmentUnstage:
			// Idempotent: unstaging an absent table is a success, so the
			// coordinator's best-effort cleanup can retry blindly.
			srv.Catalog().Drop(req.Name)
			writeAck(w, wire.FragmentAck{OK: true})
		case wire.FragmentAnalyze:
			if req.Name == "" {
				n := srv.AnalyzeAll()
				writeAck(w, wire.FragmentAck{OK: true, Rows: int64(n)})
				return
			}
			t, err := srv.Analyze(req.Name)
			if err != nil {
				server.HTTPError(w, err)
				return
			}
			writeAck(w, wire.FragmentAck{OK: true, Rows: int64(t.Rows)})
		default:
			server.HTTPError(w, requestError("distsql: unknown fragment op %q", req.Op))
		}
	})
	return mux
}

// requestError is a coded "request" error for a bad fragment body.
func requestError(format string, args ...any) error {
	return &sqlish.Error{Code: sqlish.ErrRequest, Msg: fmt.Sprintf(format, args...), Pos: -1}
}

// readStage reads a stage body's rows frames up to its closing status
// frame and returns the staged relation. The relation exists only once
// the status frame has arrived, its row count matches, and the body has
// ended, so a cut or malformed body registers nothing.
func readStage(next func() (wire.FrameKind, []byte, error)) (*relation.Relation, error) {
	var rel *relation.Relation
	for {
		kind, payload, err := next()
		if err == io.EOF {
			return nil, requestError("distsql: stage body ended before its status frame")
		}
		if err != nil {
			return nil, err
		}
		switch kind {
		case wire.KindRows:
			var sch schema.Schema
			first := rel == nil
			if first {
				rel = &relation.Relation{}
			}
			if rel.Tuples, sch, err = wire.DecodeRows(payload, rel.Tuples); err != nil {
				return nil, err
			}
			if first {
				if rel.Schema, err = schema.New(sch.Attrs...); err != nil {
					return nil, requestError("distsql: stage: %v", err)
				}
			} else if !slices.Equal(rel.Schema.Attrs, sch.Attrs) {
				return nil, requestError("distsql: stage: rows frames disagree on the schema")
			}
		case wire.KindStatus:
			var f wire.Frame
			if err := wire.UnmarshalFrame(payload, &f); err != nil {
				return nil, err
			}
			if rel == nil {
				return nil, requestError("distsql: stage body has no rows frame")
			}
			if f.RowCount != int64(rel.Len()) {
				return nil, requestError("distsql: stage status counts %d rows, body carried %d", f.RowCount, rel.Len())
			}
			if _, _, err := next(); err != io.EOF {
				return nil, requestError("distsql: stage body continues after its status frame")
			}
			return rel, nil
		default:
			return nil, requestError("distsql: unexpected frame kind %d in a stage body", kind)
		}
	}
}

// writeExecStream answers an exec fragment with the frame sequence of
// server.StreamFrames as binary frames, flushing after every frame; rows
// frames carry the segment bytes of one reused batch.
func writeExecStream(w http.ResponseWriter, rs *server.RowStream) {
	w.Header().Set("Content-Type", wire.FrameContentType)
	fw := wire.NewFrameWriter(w)
	flusher, _ := w.(http.Flusher)
	server.StreamFrames(rs, func(f wire.Frame, batch []tuple.Tuple) bool {
		var err error
		if batch != nil {
			err = fw.WriteRows(rs.Schema(), batch)
		} else {
			err = fw.WriteFrame(f)
		}
		if err != nil {
			return false // coordinator is gone; the deferred Close cancels upstream
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
}

func writeAck(w http.ResponseWriter, ack wire.FragmentAck) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ack)
}
