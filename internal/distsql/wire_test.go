package distsql

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"talign/internal/plan"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/wire"
)

// stageBody encodes a stage of kindsRelation exactly as the coordinator
// does, returning the body and the offset where each frame starts.
func stageBody(t *testing.T, name string) ([]byte, []int) {
	t.Helper()
	rel := kindsRelation()
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	var starts []int
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	starts = append(starts, buf.Len())
	step(fw.WriteJSON(wire.KindRequest, &wire.FragmentRequest{Op: wire.FragmentStage, Name: name}))
	for lo := 0; lo < rel.Len(); lo += 10 {
		starts = append(starts, buf.Len())
		step(fw.WriteRows(rel.Schema, rel.Tuples[lo:min(lo+10, rel.Len())]))
	}
	starts = append(starts, buf.Len())
	step(fw.WriteJSON(wire.KindStatus, wire.Frame{Frame: wire.FrameStatus, RowCount: int64(rel.Len())}))
	return buf.Bytes(), starts
}

// postFragment posts a raw body to a worker's /fragment endpoint and
// returns the HTTP status and, for failures, the structured error code.
func postFragment(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/fragment", wire.FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /fragment: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var out struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == nil {
		t.Fatalf("status %d without a structured error body (%v)", resp.StatusCode, err)
	}
	return resp.StatusCode, out.Error.Code
}

func newWorker(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 4})
	hs := httptest.NewServer(Handler(srv))
	t.Cleanup(hs.Close)
	return srv, hs
}

// frameHeader is a bare frame header declaring n payload bytes.
func frameHeader(kind wire.FrameKind, n uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{byte(kind)}, n)
}

// TestStageCutRegistersNothing: a stage body cut anywhere — inside a
// frame or cleanly before its status frame — is a coded "request"
// error, and the worker registers nothing; the whole body registers the
// relation.
func TestStageCutRegistersNothing(t *testing.T) {
	srv, hs := newWorker(t)
	body, starts := stageBody(t, "cut")
	var cuts []int
	for _, s := range starts[1:] {
		cuts = append(cuts, s-1, s, s+2, s+wire.FrameHeaderLen+7)
	}
	cuts = append(cuts, 3, len(body)-1)
	for _, n := range cuts {
		code, ecode := postFragment(t, hs.URL, body[:n])
		if code != http.StatusBadRequest || ecode != sqlish.ErrRequest {
			t.Fatalf("body cut at %d of %d: status %d code %q, want 400 %q", n, len(body), code, ecode, sqlish.ErrRequest)
		}
		if _, ok := srv.Catalog().Snapshot().Lookup("cut"); ok {
			t.Fatalf("body cut at %d of %d registered the relation", n, len(body))
		}
	}
	if code, ecode := postFragment(t, hs.URL, body); code != http.StatusOK {
		t.Fatalf("whole stage body: status %d code %q", code, ecode)
	}
	rel, ok := srv.Catalog().Snapshot().Lookup("cut")
	if !ok || rel.Len() != kindsRelation().Len() {
		t.Fatal("whole stage body did not register the relation")
	}
}

// TestFragmentOversizeFrames: frames whose length prefix exceeds their
// kind's bound are refused from the prefix alone with a coded "request"
// error — a request frame over wire.MaxRequestBytes, a rows frame over
// wire.MaxRowsFrame.
func TestFragmentOversizeFrames(t *testing.T) {
	srv, hs := newWorker(t)
	if code, ecode := postFragment(t, hs.URL, frameHeader(wire.KindRequest, wire.MaxRequestBytes+1)); code != http.StatusBadRequest || ecode != sqlish.ErrRequest {
		t.Fatalf("oversize request frame: status %d code %q", code, ecode)
	}
	body, starts := stageBody(t, "big")
	oversize := append(append([]byte(nil), body[:starts[1]]...), frameHeader(wire.KindRows, wire.MaxRowsFrame+1)...)
	if code, ecode := postFragment(t, hs.URL, oversize); code != http.StatusBadRequest || ecode != sqlish.ErrRequest {
		t.Fatalf("oversize rows frame: status %d code %q", code, ecode)
	}
	if _, ok := srv.Catalog().Snapshot().Lookup("big"); ok {
		t.Fatal("oversize stage registered the relation")
	}
}

// fakeWorker answers every /fragment call with body.
func fakeWorker(t *testing.T, body []byte) Worker {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.FrameContentType)
		w.Write(body)
	}))
	t.Cleanup(hs.Close)
	return Worker{Name: "w7", URL: hs.URL}
}

// execErr runs one exec fragment against w and returns the stream's
// terminal error after draining it.
func execErr(t *testing.T, w Worker) error {
	t.Helper()
	c := newWorkerClient()
	c.retries = 0
	ws := c.startExec(context.Background(), w, "SELECT * FROM t", nil, 0)
	for range ws.ch {
	}
	return ws.err
}

// assertUnavailable checks err is the structured "unavailable" error
// naming the worker.
func assertUnavailable(t *testing.T, what string, err error) {
	t.Helper()
	var se *sqlish.Error
	if !errors.As(err, &se) || se.Code != sqlish.ErrUnavailable || !strings.Contains(se.Msg, "worker w7") {
		t.Fatalf("%s: got %v, want an %q error naming worker w7", what, err, sqlish.ErrUnavailable)
	}
}

// TestExecStreamCutMidFrame: a worker response cut inside a frame, or
// ending before its status frame, or carrying a frame over its kind's
// bound, is an "unavailable" error naming the worker.
func TestExecStreamCutMidFrame(t *testing.T) {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	rel := kindsRelation()
	if err := fw.WriteJSON(wire.KindSchema, wire.Frame{Frame: wire.FrameSchema}); err != nil {
		t.Fatal(err)
	}
	rowsAt := buf.Len()
	if err := fw.WriteRows(rel.Schema, rel.Tuples); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	assertUnavailable(t, "cut mid rows frame", execErr(t, fakeWorker(t, whole[:rowsAt+40])))
	assertUnavailable(t, "cut before status", execErr(t, fakeWorker(t, whole)))
	oversize := append(append([]byte(nil), whole[:rowsAt]...), frameHeader(wire.KindRows, wire.MaxRowsFrame+1)...)
	assertUnavailable(t, "oversize rows frame", execErr(t, fakeWorker(t, oversize)))
	assertUnavailable(t, "oversize schema frame", execErr(t, fakeWorker(t, frameHeader(wire.KindSchema, wire.MaxRequestBytes+1))))
}
