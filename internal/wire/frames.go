package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"talign/internal/colbatch"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/storage"
	"talign/internal/tuple"
)

// FrameKind tags one binary frame of the fragment protocol.
type FrameKind uint8

// Binary frame kinds. Every kind but KindRows carries JSON: KindRequest
// a FragmentRequest, the others a Frame of the matching Frame* kind.
const (
	// KindRequest opens every /fragment body.
	KindRequest FrameKind = iota + 1
	// KindSchema opens an exec response (Frame with columns and types).
	KindSchema
	// KindRows carries one batch as storage segment bytes.
	KindRows
	// KindPlan carries a plan rendering (Frame).
	KindPlan
	// KindStatus ends a stage body or an exec response (Frame with the
	// row count).
	KindStatus
	// KindError ends a failed exec response (Frame with the error).
	KindError
)

// FrameHeaderLen is the size of a binary frame's header: kind u8, then
// the payload length as a little-endian u32.
const FrameHeaderLen = 5

// Frame size bounds, checked against the length prefix before any
// payload byte is read.
const (
	// MaxRequestBytes bounds every JSON-carrying frame. It is also the
	// body bound of /query, /query/stream and /prepare.
	MaxRequestBytes = 1 << 20
	// MaxRowsFrame bounds one rows frame. Writers split a batch whose
	// encoding would exceed it.
	MaxRowsFrame = 64 << 20
)

// FrameContentType is the media type of a binary frame sequence.
const FrameContentType = "application/vnd.talign.frames"

// frameError is the coded "request" error for a malformed, truncated or
// oversized frame sequence.
func frameError(format string, args ...any) error {
	return &sqlish.Error{Code: sqlish.ErrRequest, Msg: "wire: " + fmt.Sprintf(format, args...), Pos: -1}
}

// FrameWriter writes binary frames to an io.Writer. Rows frames reuse
// one batch and one encoding buffer across calls.
type FrameWriter struct {
	w       io.Writer
	buf     []byte
	batch   *colbatch.Batch
	maxRows int // rows-frame payload bound (MaxRowsFrame)
}

// NewFrameWriter returns a writer of frames to w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w, maxRows: MaxRowsFrame} }

// WriteJSON writes one JSON-carrying frame of the given kind.
func (fw *FrameWriter) WriteJSON(kind FrameKind, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fw.buf = append(appendHeader(fw.buf[:0], kind, len(data)), data...)
	_, err = fw.w.Write(fw.buf)
	return err
}

// WriteRows writes rows (whose visible attributes follow sch) as rows
// frames: normally one, split in halves while the encoding exceeds
// MaxRowsFrame.
func (fw *FrameWriter) WriteRows(sch schema.Schema, rows []tuple.Tuple) error {
	fw.batch = colbatch.FromTuples(fw.batch, sch, rows)
	fw.buf = storage.AppendSegment(appendHeader(fw.buf[:0], KindRows, 0), fw.batch)
	n := len(fw.buf) - FrameHeaderLen
	if n > fw.maxRows && len(rows) > 1 {
		half := len(rows) / 2
		if err := fw.WriteRows(sch, rows[:half]); err != nil {
			return err
		}
		return fw.WriteRows(sch, rows[half:])
	}
	binary.LittleEndian.PutUint32(fw.buf[1:], uint32(n))
	_, err := fw.w.Write(fw.buf)
	return err
}

// frameKinds maps the Frame names of JSON-carrying frames to their
// binary kinds.
var frameKinds = map[string]FrameKind{
	FrameSchema: KindSchema, FramePlan: KindPlan, FrameStatus: KindStatus, FrameError: KindError,
}

// WriteFrame writes f as a JSON-carrying frame of the kind its Frame
// name selects (schema, plan, status or error; rows go through
// WriteRows).
func (fw *FrameWriter) WriteFrame(f Frame) error {
	kind, ok := frameKinds[f.Frame]
	if !ok {
		return fmt.Errorf("wire: no binary frame kind for %q frames", f.Frame)
	}
	return fw.WriteJSON(kind, f)
}

func appendHeader(dst []byte, kind FrameKind, n int) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, byte(kind)), uint32(n))
}

// FrameReader reads binary frames from an io.Reader into one reused
// buffer.
type FrameReader struct {
	r   io.Reader
	hdr [FrameHeaderLen]byte
	buf []byte
}

// NewFrameReader returns a reader of the frames in r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Reset switches the reader to r, keeping its buffer; a frame is read
// whole from one reader.
func (fr *FrameReader) Reset(r io.Reader) { fr.r = r }

// Next reads one frame. The payload aliases the reader's buffer and is
// valid only until the next call. A sequence that ends cleanly between
// frames returns io.EOF; every other failure — an unknown kind, a
// length over the kind's bound, a cut-off frame, a failing reader — is
// a coded "request" error.
func (fr *FrameReader) Next() (FrameKind, []byte, error) {
	if n, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if n == 0 && err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, readError(err)
	}
	kind := FrameKind(fr.hdr[0])
	n := binary.LittleEndian.Uint32(fr.hdr[1:])
	limit := uint32(MaxRequestBytes)
	switch kind {
	case KindRows:
		limit = MaxRowsFrame
	case KindRequest, KindSchema, KindPlan, KindStatus, KindError:
	default:
		return 0, nil, frameError("unknown frame kind %d", kind)
	}
	if n > limit {
		return 0, nil, frameError("frame of %d bytes exceeds the %d-byte bound of its kind %d", n, limit, kind)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return 0, nil, readError(err)
	}
	return kind, fr.buf, nil
}

func readError(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return frameError("frame sequence cut off mid-frame")
	}
	return frameError("reading frames: %v", err)
}

// UnmarshalFrame decodes a JSON-carrying frame's payload into v, with
// numbers as json.Number so integers survive exactly. Malformed JSON
// is a coded "request" error.
func UnmarshalFrame(payload []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return frameError("bad JSON frame: %v", err)
	}
	if dec.More() {
		return frameError("trailing data after JSON frame")
	}
	return nil
}

// DecodeRows decodes a rows frame's payload, appending its rows to dst
// as tuples that own their values (the payload may be reused at once),
// and returns the rows' visible-attribute schema. A payload that is not
// a valid segment is a coded "request" error.
func DecodeRows(payload []byte, dst []tuple.Tuple) ([]tuple.Tuple, schema.Schema, error) {
	b, _, err := storage.DecodeSegment(payload)
	if err != nil {
		return dst, schema.Schema{}, frameError("bad rows frame: %v", err)
	}
	return b.Materialize(slices.Grow(dst, b.NumRows())), b.Schema, nil
}
