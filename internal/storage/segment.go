package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"

	"talign/internal/colbatch"
	"talign/internal/schema"
	"talign/internal/value"
)

// Column storage encodings inside a segment. The encoding mirrors the
// physical layout of colbatch.Vec, so decoding reverses to the same
// in-memory form the vectorized executor scans.
const (
	encInt      = 0 // data: rows × int64
	encFloat    = 1 // data: rows × float64
	encStr      = 2 // aux: (rows+1) × u32 offsets; data: blob
	encBool     = 3 // data: rows × byte (0/1)
	encInterval = 4 // data: rows × int64 starts; aux: rows × int64 ends
	encAny      = 5 // aux: (rows+1) × u32 offsets; data: tagged cells
)

// colRegion locates one column's regions in the payload. Offsets are
// absolute file offsets, 8-byte aligned; a zero-length nulls region
// means "no ω rows".
type colRegion struct {
	enc                uint8
	dataOff, dataLen   uint64
	auxOff, auxLen     uint64
	nullsOff, nullsLen uint64
}

// segHeader is the decoded header of a segment file.
type segHeader struct {
	rows   int
	schema schema.Schema
	zone   colbatch.Zone
	tsOff  uint64
	teOff  uint64
	cols   []colRegion
}

// hostLittleEndian reports whether int64/float64 regions can alias
// file bytes directly.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// segPreamble is the framing ahead of a segment's header: magic,
// version and body length (see frame).
const segPreamble = len(segMagic) + 8

// EncodeSegment serializes a batch (no selection vector) into the
// segment file format, including its zone map. The encoding is
// deterministic: the same batch always produces the same bytes (the
// golden-file tests depend on this).
func EncodeSegment(b *colbatch.Batch) []byte { return AppendSegment(nil, b) }

// colPlan is one column's region layout plus the bitmap it will write.
type colPlan struct {
	colRegion
	nulls []uint64
}

// AppendSegment appends the segment encoding of b (see EncodeSegment)
// to dst and returns the extended slice. Region offsets are relative to
// the segment's first byte, wherever that lands in dst. Every region is
// sized before anything is written, so dst grows at most once, and an
// append into a buffer with enough room allocates only the zone map.
func AppendSegment(dst []byte, b *colbatch.Batch) []byte {
	if b.Sel != nil {
		panic("storage: EncodeSegment over a selection")
	}
	rows := b.Len()
	zone := colbatch.ZoneOf(b)

	// Size pass. The header length does not depend on the offsets (they
	// are fixed u64s), so it fixes the payload base; each region then
	// starts at the first 8-byte boundary after the previous one.
	var stack [8]colPlan
	cols := stack[:0]
	hdrLen := 4 + 2 + zoneLen(zone) + 2*8
	for c := range b.Cols {
		hdrLen += 2 + len(b.Schema.Attrs[c].Name) + 1 + 1 + 6*8
		cols = append(cols, planColumn(&b.Cols[c]))
	}
	end := uint64(segPreamble + hdrLen)
	place := func(n uint64) uint64 {
		off := align8(end)
		end = off + n
		return off
	}
	tsOff := place(uint64(rows) * 8)
	teOff := place(uint64(rows) * 8)
	for i := range cols {
		c := &cols[i]
		c.dataOff = place(c.dataLen)
		c.auxOff = place(c.auxLen)
		c.nullsOff = place(c.nullsLen)
	}

	start := len(dst)
	if need := int(end) + 4; cap(dst)-start < need {
		dst = append(make([]byte, 0, start+need), dst...)
	}
	e := enc{b: dst}
	e.b = append(e.b, segMagic...)
	e.u32(SegmentVersion)
	e.u32(uint32(end - uint64(segPreamble)))
	e.u32(uint32(rows))
	e.u16(uint16(len(b.Schema.Attrs)))
	for _, a := range b.Schema.Attrs {
		e.str(a.Name)
		e.u8(uint8(a.Type))
	}
	encodeZone(&e, zone)
	e.u64(tsOff)
	e.u64(teOff)
	for _, c := range cols {
		e.u8(c.enc)
		e.u64(c.dataOff)
		e.u64(c.dataLen)
		e.u64(c.auxOff)
		e.u64(c.auxLen)
		e.u64(c.nullsOff)
		e.u64(c.nullsLen)
	}

	// Write pass: each region is zero-padded up to its planned offset.
	at := func(off uint64) {
		for uint64(len(e.b)-start) < off {
			e.b = append(e.b, 0)
		}
	}
	at(tsOff)
	e.int64s(b.TS)
	at(teOff)
	e.int64s(b.TE)
	for i := range cols {
		c, v := &cols[i], &b.Cols[i]
		at(c.dataOff)
		switch c.enc {
		case encInt:
			xs, _ := v.IntsRaw()
			e.int64s(xs)
		case encFloat:
			xs, _ := v.FloatsRaw()
			// The same 8 bytes per value as math.Float64bits.
			e.int64s(unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)))
		case encStr:
			xs, _ := v.StrsRaw()
			for _, x := range xs {
				e.b = append(e.b, x...)
			}
			at(c.auxOff)
			e.offsets(len(xs), func(i int) int { return len(xs[i]) })
		case encBool:
			xs, _ := v.BoolsRaw()
			for _, x := range xs {
				if x {
					e.u8(1)
				} else {
					e.u8(0)
				}
			}
		case encInterval:
			ts, te, _ := v.IntervalsRaw()
			e.int64s(ts)
			at(c.auxOff)
			e.int64s(te)
		default:
			xs, _ := v.AnyRaw()
			for _, x := range xs {
				e.val(x)
			}
			at(c.auxOff)
			e.offsets(len(xs), func(i int) int { return valLen(xs[i]) })
		}
		at(c.nullsOff)
		for _, w := range c.nulls {
			e.u64(w)
		}
	}
	return binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b[start:]))
}

// planColumn picks a column's encoding and sizes its regions.
func planColumn(v *colbatch.Vec) colPlan {
	var p colPlan
	if xs, ok := v.IntsRaw(); ok {
		p.enc, p.dataLen = encInt, uint64(len(xs))*8
	} else if xs, ok := v.FloatsRaw(); ok {
		p.enc, p.dataLen = encFloat, uint64(len(xs))*8
	} else if xs, ok := v.StrsRaw(); ok {
		p.enc, p.auxLen = encStr, uint64(len(xs)+1)*4
		for _, x := range xs {
			p.dataLen += uint64(len(x))
		}
	} else if xs, ok := v.BoolsRaw(); ok {
		p.enc, p.dataLen = encBool, uint64(len(xs))
	} else if ts, te, ok := v.IntervalsRaw(); ok {
		p.enc, p.dataLen, p.auxLen = encInterval, uint64(len(ts))*8, uint64(len(te))*8
	} else {
		xs, _ := v.AnyRaw()
		p.enc, p.auxLen = encAny, uint64(len(xs)+1)*4
		for _, x := range xs {
			p.dataLen += uint64(valLen(x))
		}
	}
	p.nulls = v.NullBitmap()
	p.nullsLen = uint64(len(p.nulls)) * 8
	return p
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// int64s appends xs little-endian; on a little-endian host that is a
// straight copy of the slice's memory.
func (e *enc) int64s(xs []int64) {
	if hostLittleEndian {
		e.b = append(e.b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*8)...)
		return
	}
	for _, x := range xs {
		e.i64(x)
	}
}

// offsets appends the (n+1)-entry u32 offset region of n variable-width
// cells whose byte lengths size reports.
func (e *enc) offsets(n int, size func(i int) int) {
	var off uint32
	e.u32(0)
	for i := 0; i < n; i++ {
		off += uint32(size(i))
		e.u32(off)
	}
}

// valLen is the encoded length of a tagged value cell (see enc.val).
func valLen(v value.Value) int {
	switch v.Kind() {
	case value.KindBool:
		return 2
	case value.KindInt, value.KindFloat:
		return 9
	case value.KindString:
		return 5 + len(v.Str())
	case value.KindInterval:
		return 17
	}
	return 1
}

// zoneLen is the encoded length of a zone map (see encodeZone).
func zoneLen(z colbatch.Zone) int {
	n := 4 + 4*8
	for _, c := range z.Cols {
		n += valLen(c.Min) + valLen(c.Max) + 4
	}
	return n
}

func encodeZone(e *enc, z colbatch.Zone) {
	e.u32(uint32(z.Rows))
	e.i64(z.MinTS)
	e.i64(z.MaxTS)
	e.i64(z.MinTE)
	e.i64(z.MaxTE)
	for _, c := range z.Cols {
		e.val(c.Min)
		e.val(c.Max)
		e.u32(uint32(c.Nulls))
	}
}

func decodeZone(d *dec, cols int) colbatch.Zone {
	z := colbatch.Zone{Rows: int(d.u32())}
	z.MinTS = d.i64()
	z.MaxTS = d.i64()
	z.MinTE = d.i64()
	z.MaxTE = d.i64()
	z.Cols = make([]colbatch.ZoneCol, cols)
	for i := range z.Cols {
		z.Cols[i].Min = d.val()
		z.Cols[i].Max = d.val()
		z.Cols[i].Nulls = int(d.u32())
	}
	return z
}

// DecodeSegment parses a segment file into a batch plus its zone map.
// When data is a memory-mapped region on a little-endian host, the
// int64/float64 columns, the TS/TE arrays and the validity bitmaps
// alias the mapping directly (zero copy); strings, bools and boxed
// cells are decoded onto the heap. The batch is read-only and valid
// only while data stays mapped.
func DecodeSegment(data []byte) (*colbatch.Batch, colbatch.Zone, error) {
	body, err := unframe(segMagic, SegmentVersion, data, "segment")
	if err != nil {
		return nil, colbatch.Zone{}, err
	}
	d := &dec{b: body, what: "segment header"}
	rows := int(d.u32())
	ncols := int(d.u16())
	if d.err != nil {
		return nil, colbatch.Zone{}, d.err
	}
	if rows < 0 || rows > len(data) {
		return nil, colbatch.Zone{}, corruptf("segment header: row count %d exceeds file size", rows)
	}
	if ncols > math.MaxUint16 || 7*ncols > len(body) {
		return nil, colbatch.Zone{}, corruptf("segment header: column count %d exceeds header size", ncols)
	}
	attrs := make([]schema.Attr, ncols)
	for i := range attrs {
		attrs[i].Name = d.str()
		attrs[i].Type = value.Kind(d.u8())
		if attrs[i].Type > value.KindInterval {
			return nil, colbatch.Zone{}, corruptf("segment header: column %d has unknown kind %d", i, attrs[i].Type)
		}
	}
	zone := decodeZone(d, ncols)
	hdr := segHeader{rows: rows, schema: schema.Schema{Attrs: attrs}, zone: zone}
	hdr.tsOff = d.u64()
	hdr.teOff = d.u64()
	hdr.cols = make([]colRegion, ncols)
	for i := range hdr.cols {
		c := &hdr.cols[i]
		c.enc = d.u8()
		c.dataOff = d.u64()
		c.dataLen = d.u64()
		c.auxOff = d.u64()
		c.auxLen = d.u64()
		c.nullsOff = d.u64()
		c.nullsLen = d.u64()
	}
	if d.err != nil {
		return nil, colbatch.Zone{}, d.err
	}
	if zone.Rows != rows {
		return nil, colbatch.Zone{}, corruptf("segment header: zone rows %d != segment rows %d", zone.Rows, rows)
	}

	// region bounds-checks a payload region and returns its bytes.
	// The file-level CRC already vouches for content; this guards
	// against malformed offsets pointing outside the checked bytes.
	region := func(off, length uint64, what string) ([]byte, error) {
		end := uint64(len(data)) - 4 // the trailing CRC is not payload
		if off%8 != 0 {
			return nil, corruptf("segment: %s region at offset %d is not 8-byte aligned", what, off)
		}
		if off > end || length > end-off {
			return nil, corruptf("segment: %s region [%d, +%d) exceeds file payload [0, %d)", what, off, length, end)
		}
		return data[off : off+length], nil
	}
	tsb, err := region(hdr.tsOff, uint64(rows)*8, "ts")
	if err != nil {
		return nil, colbatch.Zone{}, err
	}
	teb, err := region(hdr.teOff, uint64(rows)*8, "te")
	if err != nil {
		return nil, colbatch.Zone{}, err
	}
	ts := decodeInt64s(tsb, rows)
	te := decodeInt64s(teb, rows)

	cols := make([]colbatch.Vec, ncols)
	for i := range cols {
		c := hdr.cols[i]
		name := attrs[i].Name
		var nulls []uint64
		if c.nullsLen != 0 {
			want := uint64((rows + 63) / 64 * 8)
			if c.nullsLen > want {
				return nil, colbatch.Zone{}, corruptf("segment: column %q bitmap is %d bytes, want at most %d", name, c.nullsLen, want)
			}
			nb, err := region(c.nullsOff, c.nullsLen, name+" bitmap")
			if err != nil {
				return nil, colbatch.Zone{}, err
			}
			nulls = decodeUint64s(nb, int(c.nullsLen/8))
		}
		db, err := region(c.dataOff, c.dataLen, name+" data")
		if err != nil {
			return nil, colbatch.Zone{}, err
		}
		ab, err := region(c.auxOff, c.auxLen, name+" aux")
		if err != nil {
			return nil, colbatch.Zone{}, err
		}
		vec, err := decodeColumn(c.enc, attrs[i].Type, name, rows, db, ab, nulls)
		if err != nil {
			return nil, colbatch.Zone{}, err
		}
		cols[i] = vec
	}
	return colbatch.NewFromParts(hdr.schema, cols, ts, te), zone, nil
}

// decodeColumn reverses one column region pair into a Vec. Typed
// encodings must match the declared schema kind; boxed cells (encAny)
// are legal for any declared kind — that is how demoted heterogeneous
// and untyped columns persist.
func decodeColumn(colEnc uint8, kind value.Kind, name string, rows int, data, aux []byte, nulls []uint64) (colbatch.Vec, error) {
	var zero colbatch.Vec
	wantKind := map[uint8]value.Kind{
		encInt: value.KindInt, encFloat: value.KindFloat, encStr: value.KindString,
		encBool: value.KindBool, encInterval: value.KindInterval,
	}
	if k, typed := wantKind[colEnc]; typed && k != kind {
		return zero, corruptf("segment: column %q declared %s but stored with encoding %d", name, kind, colEnc)
	}
	fixed := func(b []byte, width int, what string) error {
		if len(b) != rows*width {
			return corruptf("segment: column %q %s region is %d bytes, want %d", name, what, len(b), rows*width)
		}
		return nil
	}
	switch colEnc {
	case encInt:
		if err := fixed(data, 8, "data"); err != nil {
			return zero, err
		}
		return colbatch.VecFromInts(decodeInt64s(data, rows), nulls), nil
	case encFloat:
		if err := fixed(data, 8, "data"); err != nil {
			return zero, err
		}
		return colbatch.VecFromFloats(decodeFloat64s(data, rows), nulls), nil
	case encBool:
		if err := fixed(data, 1, "data"); err != nil {
			return zero, err
		}
		xs := make([]bool, rows)
		for i, b := range data {
			xs[i] = b != 0
		}
		return colbatch.VecFromBools(xs, nulls), nil
	case encInterval:
		if err := fixed(data, 8, "data"); err != nil {
			return zero, err
		}
		if err := fixed(aux, 8, "aux"); err != nil {
			return zero, err
		}
		return colbatch.VecFromIntervals(decodeInt64s(data, rows), decodeInt64s(aux, rows), nulls), nil
	case encStr:
		cells, err := splitOffsets(name, rows, data, aux)
		if err != nil {
			return zero, err
		}
		xs := make([]string, rows)
		for i, c := range cells {
			xs[i] = string(c)
		}
		return colbatch.VecFromStrs(xs, nulls), nil
	case encAny:
		cells, err := splitOffsets(name, rows, data, aux)
		if err != nil {
			return zero, err
		}
		xs := make([]value.Value, rows)
		for i, c := range cells {
			cd := &dec{b: c, what: "segment cell"}
			xs[i] = cd.val()
			if err := cd.done(); err != nil {
				return zero, corruptf("segment: column %q row %d: %v", name, i, err)
			}
		}
		return colbatch.VecFromAny(kind, xs), nil
	default:
		return zero, corruptf("segment: column %q has unknown encoding %d", name, colEnc)
	}
}

// splitOffsets slices variable-width cell storage by its offset region.
func splitOffsets(name string, rows int, data, aux []byte) ([][]byte, error) {
	if len(aux) != (rows+1)*4 {
		return nil, corruptf("segment: column %q offset region is %d bytes, want %d", name, len(aux), (rows+1)*4)
	}
	cells := make([][]byte, rows)
	prev := binary.LittleEndian.Uint32(aux)
	if prev != 0 {
		return nil, corruptf("segment: column %q offsets do not start at 0", name)
	}
	for i := 0; i < rows; i++ {
		next := binary.LittleEndian.Uint32(aux[(i+1)*4:])
		if next < prev || next > uint32(len(data)) {
			return nil, corruptf("segment: column %q offset %d (%d) out of order or out of range", name, i+1, next)
		}
		cells[i] = data[prev:next]
		prev = next
	}
	return cells, nil
}

// decodeInt64s aliases b as []int64 when the host allows zero-copy,
// else copies.
func decodeInt64s(b []byte, n int) []int64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func decodeFloat64s(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func decodeUint64s(b []byte, n int) []uint64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}
