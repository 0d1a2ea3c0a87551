package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/tuple"
	"talign/internal/value"
)

// frameRows is a small batch covering every kind, ω and a column that
// mixes ints and floats.
func frameRows() (schema.Schema, []tuple.Tuple) {
	sch := schema.MustNew(
		schema.Attr{Name: "f", Type: value.KindFloat},
		schema.Attr{Name: "s", Type: value.KindString},
		schema.Attr{Name: "p", Type: value.KindInterval},
		schema.Attr{Name: "m", Type: value.KindInt},
	)
	rows := []tuple.Tuple{
		{Vals: []value.Value{value.NewFloat(math.Inf(-1)), value.NewString("a\nb"), value.NewInterval(interval.New(0, 3)), value.NewInt(2)}, T: interval.New(1, 4)},
		{Vals: []value.Value{value.NewFloat(math.Copysign(0, -1)), value.NewString("[1, 2)"), value.Null, value.NewFloat(2)}, T: interval.New(2, 9)},
		{Vals: []value.Value{value.Null, value.NewString(""), value.NewInterval(interval.New(5, 6)), value.Null}, T: interval.New(0, 1)},
	}
	return sch, rows
}

// sameCells reports whether two rows agree on valid time and on every
// cell's kind and exact bits.
func sameCells(a, b tuple.Tuple) bool {
	if a.T != b.T || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i, x := range a.Vals {
		y := b.Vals[i]
		if x.Kind() != y.Kind() {
			return false
		}
		if x.Kind() == value.KindFloat {
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		} else if x.Compare(y) != 0 {
			return false
		}
	}
	return true
}

// TestFrameRoundTrip: JSON and rows frames read back as written, rows
// kind- and bit-exact, and a sequence ends with io.EOF at a frame
// boundary.
func TestFrameRoundTrip(t *testing.T) {
	sch, rows := frameRows()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteJSON(KindRequest, &FragmentRequest{Op: FragmentStage, Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteRows(sch, rows); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteJSON(KindStatus, Frame{Frame: FrameStatus, RowCount: 3}); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&buf)
	kind, payload, err := fr.Next()
	var req FragmentRequest
	if err != nil || kind != KindRequest || UnmarshalFrame(payload, &req) != nil || req.Name != "t" {
		t.Fatalf("request frame: kind %d err %v req %+v", kind, err, req)
	}
	kind, payload, err = fr.Next()
	if err != nil || kind != KindRows {
		t.Fatalf("rows frame: kind %d err %v", kind, err)
	}
	got, gotSch, err := DecodeRows(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotSch.Len() != sch.Len() || len(got) != len(rows) {
		t.Fatalf("decoded %d rows over %d columns", len(got), gotSch.Len())
	}
	for i := range rows {
		if !sameCells(got[i], rows[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
	var st Frame
	if kind, payload, err = fr.Next(); err != nil || kind != KindStatus || UnmarshalFrame(payload, &st) != nil || st.RowCount != 3 {
		t.Fatalf("status frame: kind %d err %v frame %+v", kind, err, st)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of sequence: %v, want io.EOF", err)
	}
}

// TestWriteRowsSplitsOversizeBatch: a batch whose encoding exceeds the
// rows-frame bound goes out as several frames that together carry every
// row in order.
func TestWriteRowsSplitsOversizeBatch(t *testing.T) {
	sch, rows := frameRows()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	bound := 0
	for i := range rows {
		buf.Reset()
		if err := fw.WriteRows(sch, rows[i:i+1]); err != nil {
			t.Fatal(err)
		}
		bound = max(bound, buf.Len()-FrameHeaderLen)
	}
	buf.Reset()
	fw.maxRows = bound // every 1-row frame fits, the whole batch does not
	if err := fw.WriteRows(sch, rows); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	var got []tuple.Tuple
	frames := 0
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil || kind != KindRows {
			t.Fatalf("frame %d: kind %d err %v", frames, kind, err)
		}
		if len(payload) > fw.maxRows {
			t.Fatalf("frame %d is %d bytes, over the %d-byte bound", frames, len(payload), fw.maxRows)
		}
		frames++
		if got, _, err = DecodeRows(payload, got); err != nil {
			t.Fatal(err)
		}
	}
	if frames < 2 || len(got) != len(rows) {
		t.Fatalf("%d frames carrying %d rows, want a split carrying %d", frames, len(got), len(rows))
	}
	for i := range rows {
		if !sameCells(got[i], rows[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
}

// checkCoded fails unless err is a coded "request" error.
func checkCoded(t *testing.T, err error) {
	t.Helper()
	var se *sqlish.Error
	if !errors.As(err, &se) || se.Code != sqlish.ErrRequest {
		t.Fatalf("got %v (%T), want a coded %q error", err, err, sqlish.ErrRequest)
	}
}

// FuzzFragmentFrames: any byte sequence read as fragment frames yields
// decoded frames up to a clean end or a coded "request" error — never a
// panic, never an "internal" error. The committed corpus holds real
// exec responses and stage bodies.
func FuzzFragmentFrames(f *testing.F) {
	sch, rows := frameRows()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	_ = fw.WriteJSON(KindRequest, &FragmentRequest{Op: FragmentStage, Name: "t"})
	_ = fw.WriteRows(sch, rows)
	_ = fw.WriteJSON(KindStatus, Frame{Frame: FrameStatus, RowCount: 3})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{byte(KindRows), 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			kind, payload, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				checkCoded(t, err)
				return
			}
			switch kind {
			case KindRows:
				var got []tuple.Tuple
				var gotSch schema.Schema
				got, gotSch, err = DecodeRows(payload, nil)
				for _, r := range got {
					if len(r.Vals) != gotSch.Len() {
						t.Fatalf("decoded row of arity %d under a %d-column schema", len(r.Vals), gotSch.Len())
					}
				}
			case KindRequest:
				err = UnmarshalFrame(payload, &FragmentRequest{})
			default:
				err = UnmarshalFrame(payload, &Frame{})
			}
			if err != nil {
				checkCoded(t, err)
				return
			}
		}
	})
}
