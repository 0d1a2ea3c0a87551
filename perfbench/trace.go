package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"talign"
	"talign/internal/csvio"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/storage"
	"talign/internal/tuple"
	"talign/internal/value"
)

// span is one timed interval at a layer boundary the benchmark owns.
// Spans of one client operation share QID (the operation's root span).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	QID    uint64 `json:"qid,omitempty"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Allocs int64  `json:"allocs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The HTTP wrappers
// record only while on is set, so the untraced half of a traced run
// pays one atomic load per request.
type tracer struct {
	t0       time.Time
	on       atomic.Bool
	ids      atomic.Uint64
	sessions map[string]*client // front-server request attribution

	// fragParent/fragQID name the span that currently dispatches
	// fragments to the workers: the coordinator's request span or a
	// probe. stream-dist has one client, so there is one at a time.
	fragParent atomic.Uint64
	fragQID    atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), sessions: map[string]*client{}} }

func (t *tracer) id() uint64            { return t.ids.Add(1) }
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// record adds a finished span that started at start and ends now.
func (t *tracer) record(s span, start time.Time) {
	s.Start, s.End = t.ns(start), t.ns(time.Now())
	t.add(s)
}

// frontHandler wraps the front server's handler: each request becomes a
// transport.request span, child of the client.query span of the client
// whose session sent it, and each frame written (Write then Flush) a
// transport.write span.
func (t *tracer) frontHandler(srv *server.Server) http.Handler {
	next := srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		var parent, qid uint64
		if r.Body != nil {
			body, _ := io.ReadAll(r.Body) // a short read fails the request below
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req struct {
				Session string `json:"session"`
			}
			if json.Unmarshal(body, &req) == nil {
				if c := t.sessions[req.Session]; c != nil {
					parent, qid = c.cur.Load(), c.curQID.Load()
				}
			}
		}
		id := t.id()
		t.fragParent.Store(id)
		t.fragQID.Store(qid)
		tw := &timedWriter{ResponseWriter: w, t: t, parent: id, qid: qid}
		start := time.Now()
		next.ServeHTTP(tw, r)
		t.record(span{ID: id, Parent: parent, QID: qid, Name: "transport.request", Class: r.URL.Path,
			Rows: tw.frames, Bytes: tw.bytes}, start)
	})
}

// timedWriter times the frames a handler writes.
type timedWriter struct {
	http.ResponseWriter
	t          *tracer
	parent     uint64
	qid        uint64
	frameStart time.Time
	inFrame    bool
	frames     int64
	bytes      int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if !w.inFrame {
		w.frameStart, w.inFrame = time.Now(), true
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	w.frames += int64(bytes.Count(p[:n], []byte{'\n'}))
	return n, err
}

func (w *timedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	if w.inFrame {
		w.t.record(span{ID: w.t.id(), Parent: w.parent, QID: w.qid, Name: "transport.write"}, w.frameStart)
		w.inFrame = false
	}
}

// workerHandler wraps a worker's handler: each /fragment request becomes
// a distsql.fragment span (Class = worker name), child of the span that
// dispatched it.
func (t *tracer) workerHandler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/fragment" {
			next.ServeHTTP(w, r)
			return
		}
		parent, qid := t.fragParent.Load(), t.fragQID.Load()
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(span{ID: t.id(), Parent: parent, QID: qid, Name: "distsql.fragment", Class: name}, start)
	})
}

// prober makes a traced run's direct calls into each layer's public
// functions for one client, after each of the client's operations.
type prober struct {
	b       *bench
	session string // server session holding the probe's prepared statements

	enc     *server.Server // serial row-executor server for the wire probe
	capture captureWriter
	replay  *httpNode
	replayB atomic.Pointer[[]byte]
	replay2 *talign.DB

	store    *storage.Store
	storeDir string
	ingest   *relation.Relation
}

// captureWriter is an http.ResponseWriter that keeps what is written.
type captureWriter struct {
	h   http.Header
	buf bytes.Buffer
}

func (w *captureWriter) Header() http.Header         { return w.h }
func (w *captureWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *captureWriter) WriteHeader(int)             {}

func (b *bench) newProber(c *client) (_ *prober, err error) {
	flags := plan.DefaultFlags()
	flags.DisableColumnar = true // a row scan needs no columnar image of r
	p := &prober{b: b, session: fmt.Sprintf("probe-c%d", c.id), enc: newServer(flags), capture: captureWriter{h: http.Header{}}}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	for _, sh := range b.shapes {
		if _, err := b.sys.front.Prepare(p.session, sh.Name, sh.prepared()); err != nil {
			return nil, fmt.Errorf("probe prepare %s: %w", sh.Name, err)
		}
	}
	// The replay server answers every query with the last captured
	// response, so the client's decode runs without server work.
	p.replay, err = listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(*p.replayB.Load())
	}))
	if err != nil {
		return nil, err
	}
	empty := []byte{}
	p.replayB.Store(&empty)
	if p.replay2, err = talign.Open("talignd://" + strings.TrimPrefix(p.replay.url, "http://")); err != nil {
		return nil, err
	}
	p.storeDir = filepath.Join(b.cfg.Dir, fmt.Sprintf("probe-store-c%d", c.id))
	if p.store, err = storage.Open(p.storeDir); err != nil {
		return nil, err
	}
	if p.ingest, err = csvio.ReadFile(b.ingestCSV); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *prober) close() {
	if p.replay2 != nil {
		p.replay2.Close()
	}
	if p.replay != nil {
		p.replay.close()
	}
	if p.store != nil {
		p.store.Close()
	}
}

// read probes one read operation's layers in turn: sqlish parse and
// prepare, server open and executor drain, wire encode, client decode.
func (p *prober) read(ctx context.Context, o op, qid uint64) error {
	t, b := p.b.tr, p.b
	sh := b.shapes[o.Shape]
	text, stmt, adhoc := sh.SQL, "", sh.SQL
	var params []value.Value
	if b.windowed() {
		w := b.windows[o.Window].shifted(o.Shift)
		text, adhoc = sh.adhoc(w), sh.adhoc(w)
		if o.Prepared {
			text = sh.prepared()
			params = []value.Value{value.NewInt(w.Lo), value.NewInt(w.Hi)}
		}
	}
	if o.Prepared {
		stmt, adhoc = sh.Name, ""
	}
	class := className(b.shapes, o)

	start := time.Now()
	st, _, err := sqlish.ParseNormalized(text)
	if err != nil {
		return err
	}
	t.record(span{ID: t.id(), Parent: qid, QID: qid, Name: "sqlish.parse", Class: class}, start)
	snap := b.sys.front.Catalog().Snapshot()
	start = time.Now()
	if _, err := st.Prepare(snap, b.sys.flags); err != nil {
		return err
	}
	t.record(span{ID: t.id(), Parent: qid, QID: qid, Name: "sqlish.prepare", Class: class}, start)

	// server.open: StreamBatch until it returns; exec.drain: RowStream.Next
	// until the end; exec.first_batch: from the open to the first batch.
	openID := t.id()
	t.fragParent.Store(openID)
	t.fragQID.Store(qid)
	start = time.Now()
	rs, err := b.sys.front.StreamBatch(ctx, p.session, stmt, adhoc, params, 0)
	if err != nil {
		return err
	}
	t.record(span{ID: openID, Parent: qid, QID: qid, Name: "server.open", Class: class}, start)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drainStart := time.Now()
	var inNext time.Duration
	var tuples []tuple.Tuple
	for {
		t0 := time.Now()
		batch, err := rs.Next()
		inNext += time.Since(t0)
		if err != nil {
			rs.Close()
			return err
		}
		if len(batch) == 0 {
			break
		}
		if len(tuples) == 0 {
			t.record(span{ID: t.id(), Parent: qid, QID: qid, Name: "exec.first_batch", Class: class}, start)
		}
		tuples = append(tuples, batch...) // Vals are immutable once handed out
	}
	runtime.ReadMemStats(&m1)
	cols := rs.Columns()
	rs.Close()
	rows := int64(len(tuples))
	// The span's length is the time spent inside RowStream.Next.
	t.add(span{ID: t.id(), Parent: qid, QID: qid, Name: "exec.drain", Class: class,
		Start: t.ns(drainStart), End: t.ns(drainStart.Add(inNext)), Rows: rows, Allocs: int64(m1.Mallocs - m0.Mallocs)})
	if rows == 0 {
		return nil
	}

	// wire.encode: the drained rows, registered as a table on a serial
	// row-executor server, streamed by WriteFrameStream into a buffer; a
	// plain drain of the same scan (wire.scan) is subtracted in the
	// summary, so what remains is the encoding.
	sch, err := resultSchema(cols, tuples[0])
	if err != nil {
		return err
	}
	p.enc.Catalog().Register("r", &relation.Relation{Schema: sch, Tuples: tuples})
	start = time.Now()
	if _, err := drainSQL(ctx, p.enc, "SELECT * FROM r"); err != nil {
		return err
	}
	t.record(span{ID: t.id(), Parent: qid, QID: qid, Name: "wire.scan", Class: class, Rows: rows}, start)
	p.capture.buf.Reset()
	start = time.Now()
	rs, err = p.enc.StreamBatch(ctx, "", "", "SELECT * FROM r", nil, 0)
	if err != nil {
		return err
	}
	server.WriteFrameStream(&p.capture, rs)
	rs.Close()
	t.record(span{ID: t.id(), Parent: qid, QID: qid, Name: "wire.encode", Class: class,
		Rows: rows, Bytes: int64(p.capture.buf.Len())}, start)

	// client.decode: the encoded bytes replayed to the client; the span
	// covers Rows.Next from the first row to the end of the stream.
	body := p.capture.buf.Bytes()
	p.replayB.Store(&body)
	res, err := p.replay2.Query(ctx, "replay")
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m0)
	start = time.Now()
	var n int64
	for res.Next() {
		n++
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err := res.Close(); err != nil {
		return err
	}
	if n != rows {
		return fmt.Errorf("replay decoded %d rows, executor produced %d", n, rows)
	}
	t.add(span{ID: t.id(), Parent: qid, QID: qid, Name: "client.decode", Class: class,
		Start: t.ns(start), End: t.ns(end), Rows: n, Allocs: int64(m1.Mallocs - m0.Mallocs)})
	return nil
}

// resultSchema rebuilds a result's visible-attribute schema from its
// column names (the trailing ts, te dropped) and first row's kinds.
func resultSchema(cols []string, first tuple.Tuple) (schema.Schema, error) {
	attrs := make([]schema.Attr, len(first.Vals))
	for i, v := range first.Vals {
		attrs[i] = schema.Attr{Name: cols[i], Type: v.Kind()}
	}
	return schema.New(attrs...)
}

// drainSQL runs sql on srv and returns how many rows it produced.
func drainSQL(ctx context.Context, srv *server.Server, sql string) (int, error) {
	rs, err := srv.StreamBatch(ctx, "", "", sql, nil, 0)
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	n := 0
	for {
		batch, err := rs.Next()
		if err != nil || len(batch) == 0 {
			return n, err
		}
		n += len(batch)
	}
}

// storage probes the storage layer with the ingest relation: CreateTable
// (segments, fsync, WAL commit), Load, then DropTable.
func (p *prober) storage(qid uint64) error {
	t := p.b.tr
	name := fmt.Sprintf("probe%d", t.id())
	start := time.Now()
	if err := p.store.CreateTable(name, p.ingest); err != nil {
		return err
	}
	t.record(span{ID: t.id(), Parent: qid, QID: qid, Name: "storage.create"}, start)
	size, err := dirBytes(p.storeDir)
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := p.store.Load(name); err != nil {
		return err
	}
	t.record(span{ID: t.id(), Parent: qid, QID: qid, Name: "storage.load", Rows: int64(p.ingest.Len()),
		Bytes: size}, start)
	return p.store.DropTable(name)
}
