package distsql

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"talign/internal/backoff"
	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/storage"
	"talign/internal/tuple"
	"talign/internal/value"
	"talign/internal/wire"
)

// fragmentRetries is how many times an idempotent fragment dispatch is
// re-issued beyond the first attempt. Every fragment operation is
// idempotent — exec is read-only and retried only before any frame is
// consumed, stage/unstage are last-write-wins registrations — so a
// retry can at worst repeat work, never duplicate an effect.
const fragmentRetries = 2

// workerClient issues fragment operations against the worker fleet with
// the shared backoff curve, classifying exhausted retries as structured
// "unavailable" errors naming the worker.
type workerClient struct {
	http    *http.Client
	retries int

	fragments   atomic.Uint64 // fragment operations dispatched
	retried     atomic.Uint64 // dispatch retries after transport failures/503s
	unreachable atomic.Uint64 // workers given up on after retry exhaustion
	rowsIn      atomic.Uint64 // rows decoded off worker streams
	bytesIn     atomic.Uint64 // response-body bytes read off worker streams
	rowsOut     atomic.Uint64 // rows staged out to workers
	bytesOut    atomic.Uint64 // request-body bytes staged out to workers
}

func newWorkerClient() *workerClient {
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	return &workerClient{
		http: &http.Client{Transport: &http.Transport{
			DialContext:           dialer.DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: 60 * time.Second,
			MaxIdleConnsPerHost:   16,
		}},
		retries: fragmentRetries,
	}
}

// unavailable wraps a dispatch failure as the structured error the
// satellite contract requires: code "unavailable", naming the worker.
func unavailable(w Worker, err error) error {
	return &sqlish.Error{
		Code: sqlish.ErrUnavailable,
		Msg:  fmt.Sprintf("worker %s (%s) unreachable: %v", w.Name, w.URL, err),
		Pos:  -1,
	}
}

// post sends one fragment body (a binary frame sequence), retrying
// transport failures and 503s (a draining or restarting worker) with
// exponential backoff. The same body bytes are re-sent per attempt;
// responses with structured error bodies are decoded and returned as
// their coded errors.
func (c *workerClient) post(ctx context.Context, w Worker, body []byte) (*http.Response, error) {
	c.fragments.Add(1)
	c.bytesOut.Add(uint64(len(body)))
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := faultinject.Hit("distsql.dispatch"); err != nil {
			lastErr = err
		} else {
			hreq, herr := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+"/fragment", bytes.NewReader(body))
			if herr != nil {
				return nil, herr
			}
			hreq.Header.Set("Content-Type", wire.FrameContentType)
			resp, rerr := c.http.Do(hreq)
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return resp, nil
			}
			if rerr != nil {
				lastErr = rerr
			} else {
				lastErr = decodeHTTPError(resp)
				if resp.StatusCode != http.StatusServiceUnavailable {
					// A structured non-503 failure (parse error, resource abort)
					// is the query's real outcome, not a reachability problem.
					return nil, lastErr
				}
			}
		}
		if attempt >= c.retries || ctx.Err() != nil {
			c.unreachable.Add(1)
			return nil, unavailable(w, lastErr)
		}
		c.retried.Add(1)
		select {
		case <-time.After(backoff.Default(attempt)):
		case <-ctx.Done():
			c.unreachable.Add(1)
			return nil, unavailable(w, lastErr)
		}
	}
}

// decodeHTTPError converts a non-200 fragment response into its
// structured error (or a plain description when the body is not ours).
func decodeHTTPError(resp *http.Response) error {
	defer resp.Body.Close()
	var out struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err == nil && out.Error != nil {
		return &sqlish.Error{Code: out.Error.Code, Msg: out.Error.Message, Pos: -1, Line: out.Error.Line, Col: out.Error.Col}
	}
	return fmt.Errorf("worker returned %s", resp.Status)
}

// requestBody encodes a fragment body that is just its request frame
// (exec, unstage, analyze).
func requestBody(req *wire.FragmentRequest) ([]byte, error) {
	var buf bytes.Buffer
	if err := wire.NewFrameWriter(&buf).WriteJSON(wire.KindRequest, req); err != nil {
		return nil, fmt.Errorf("distsql: encoding %s request: %v", req.Op, err)
	}
	return buf.Bytes(), nil
}

// ack performs one non-exec fragment operation (unstage, analyze) and
// decodes its acknowledgement.
func (c *workerClient) ack(ctx context.Context, w Worker, req *wire.FragmentRequest) (wire.FragmentAck, error) {
	body, err := requestBody(req)
	if err != nil {
		return wire.FragmentAck{}, err
	}
	return c.ackBody(ctx, w, req.Op, body)
}

// ackBody posts a complete fragment body and decodes the
// acknowledgement.
func (c *workerClient) ackBody(ctx context.Context, w Worker, op string, body []byte) (wire.FragmentAck, error) {
	resp, err := c.post(ctx, w, body)
	if err != nil {
		return wire.FragmentAck{}, err
	}
	defer resp.Body.Close()
	var out wire.FragmentAck
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("distsql: bad %s ack from %s: %v", op, w.Name, err)
	}
	return out, nil
}

// stage registers rel under name on worker w: a request frame, one rows
// frame per storage.DefaultSegmentRows rows (at least one, so an empty
// relation still carries its schema) and a status frame with the row
// count, which the worker checks before registering anything.
func (c *workerClient) stage(ctx context.Context, w Worker, name string, rel *relation.Relation) error {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	err := fw.WriteJSON(wire.KindRequest, &wire.FragmentRequest{Op: wire.FragmentStage, Name: name})
	for lo := 0; err == nil && (lo == 0 || lo < rel.Len()); lo += storage.DefaultSegmentRows {
		err = fw.WriteRows(rel.Schema, rel.Tuples[lo:min(lo+storage.DefaultSegmentRows, rel.Len())])
	}
	if err == nil {
		err = fw.WriteFrame(wire.Frame{Frame: wire.FrameStatus, RowCount: int64(rel.Len())})
	}
	if err != nil {
		return err
	}
	c.rowsOut.Add(uint64(rel.Len()))
	_, err = c.ackBody(ctx, w, wire.FragmentStage, buf.Bytes())
	return err
}

// countingReader counts bytes read off a worker response body.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// workerStream is one worker's in-flight exec fragment: a goroutine
// decodes its binary frames into tuple batches on a bounded channel;
// err is set before the channel closes (read it only after the close).
type workerStream struct {
	worker Worker
	ch     chan []tuple.Tuple
	err    error
}

// startExec dispatches an exec fragment to w and streams its decoded
// batches. The stream ends with a closed channel; a truncated or
// malformed stream (a worker killed mid-query) surfaces as a structured
// "unavailable" error naming the worker.
func (c *workerClient) startExec(ctx context.Context, w Worker, sql string, params []value.Value, batch int) *workerStream {
	ws := &workerStream{worker: w, ch: make(chan []tuple.Tuple, 4)}
	go func() {
		defer close(ws.ch)
		req := &wire.FragmentRequest{Op: wire.FragmentExec, SQL: sql, Batch: batch}
		for _, v := range params {
			req.Params = append(req.Params, wire.Cell(v))
			req.ParamTypes = append(req.ParamTypes, v.Kind().String())
		}
		body, err := requestBody(req)
		var resp *http.Response
		if err == nil {
			resp, err = c.post(ctx, w, body)
		}
		if err != nil {
			ws.err = err
			return
		}
		defer resp.Body.Close()
		bad := func(err error) error {
			return &sqlish.Error{
				Code: sqlish.ErrUnavailable,
				Msg:  fmt.Sprintf("worker %s (%s): bad stream: %v", w.Name, w.URL, err),
				Pos:  -1,
			}
		}
		// Each rows frame is decoded and materialized before the next
		// frame overwrites the reader's buffer: the decoded batch's int,
		// float and time columns alias it.
		fr := wire.NewFrameReader(&countingReader{r: resp.Body, n: &c.bytesIn})
		for {
			kind, payload, err := fr.Next()
			if err == io.EOF {
				err = errors.New("stream truncated before its status frame")
			}
			if err != nil {
				ws.err = bad(err)
				return
			}
			switch kind {
			case wire.KindSchema:
				// Rows frames describe their own columns and cell kinds.
			case wire.KindRows:
				tuples, _, derr := wire.DecodeRows(payload, nil)
				if derr != nil {
					ws.err = bad(derr)
					return
				}
				c.rowsIn.Add(uint64(len(tuples)))
				select {
				case ws.ch <- tuples:
				case <-ctx.Done():
					ws.err = ctx.Err()
					return
				}
			case wire.KindStatus:
				return
			case wire.KindError:
				var f wire.Frame
				if uerr := wire.UnmarshalFrame(payload, &f); uerr != nil || f.Error == nil {
					ws.err = bad(errors.New("malformed error frame"))
					return
				}
				ws.err = &sqlish.Error{Code: f.Error.Code, Msg: fmt.Sprintf("worker %s: %s", w.Name, f.Error.Message), Pos: -1}
				return
			default:
				ws.err = bad(fmt.Errorf("unexpected frame kind %d", kind))
				return
			}
		}
	}()
	return ws
}

// mergeSource concatenates worker streams in worker order (deterministic
// merge; workers still produce in parallel, buffered by their channels).
// It implements server.BatchSource.
type mergeSource struct {
	cancel  context.CancelFunc
	streams []*workerStream
	idx     int
	done    bool
}

// Next returns the next batch from the current worker, advancing to the
// next worker when one finishes. A worker error is terminal for the
// whole merge.
func (m *mergeSource) Next() ([]tuple.Tuple, error) {
	if m.done {
		return nil, nil
	}
	for m.idx < len(m.streams) {
		ws := m.streams[m.idx]
		batch, ok := <-ws.ch
		if ok {
			return batch, nil
		}
		if ws.err != nil {
			m.Close()
			return nil, ws.err
		}
		m.idx++
	}
	m.Close()
	return nil, nil
}

// Close cancels the fan-out context, tearing down every in-flight worker
// request; the decode goroutines exit through their context checks and
// closed response bodies.
func (m *mergeSource) Close() error {
	if m.done {
		return nil
	}
	m.done = true
	if m.cancel != nil {
		m.cancel()
	}
	return nil
}

// drain collects a merge stream into a flat tuple slice (the gather
// stage of final-pass strategies).
func drain(src *mergeSource) ([]tuple.Tuple, error) {
	defer src.Close()
	var out []tuple.Tuple
	for {
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if len(b) == 0 {
			return out, nil
		}
		out = append(out, b...)
	}
}
