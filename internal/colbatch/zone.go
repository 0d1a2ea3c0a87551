package colbatch

import (
	"math"

	"talign/internal/value"
)

// ZoneCol summarizes one attribute column of a segment: the minimum and
// maximum non-ω values under value.Compare, or ω for both when every row
// of the column is ω. Nulls reports how many rows are ω.
type ZoneCol struct {
	Min   value.Value
	Max   value.Value
	Nulls int
}

// AllNull reports whether the column holds no non-ω value, in which case
// any column-vs-constant comparison predicate eliminates the segment.
func (z ZoneCol) AllNull() bool { return z.Min.IsNull() }

// Zone is a segment's zone map: row count, the valid-time bounding box
// (min/max of TS and TE over all rows), and per-column min/max. The
// optimizer prunes a segment when a pushed-down predicate's admissible
// range is disjoint from the zone; internal/stats aggregates zones into
// table statistics so freshly loaded tables cost realistically before
// their first ANALYZE.
type Zone struct {
	Rows  int
	MinTS int64
	MaxTS int64
	MinTE int64
	MaxTE int64
	Cols  []ZoneCol
}

// ZoneOf computes the zone map of a batch with no selection vector.
// A zero-row batch yields a zone with Rows == 0 and inverted time bounds
// unset to zero; callers partitioning data never emit empty segments.
func ZoneOf(b *Batch) Zone {
	z := Zone{Rows: b.Len(), Cols: make([]ZoneCol, len(b.Cols))}
	if b.Sel != nil {
		panic("colbatch: ZoneOf over a selection")
	}
	for i := 0; i < b.Len(); i++ {
		ts, te := b.TS[i], b.TE[i]
		if i == 0 {
			z.MinTS, z.MaxTS, z.MinTE, z.MaxTE = ts, ts, te, te
		} else {
			if ts < z.MinTS {
				z.MinTS = ts
			}
			if ts > z.MaxTS {
				z.MaxTS = ts
			}
			if te < z.MinTE {
				z.MinTE = te
			}
			if te > z.MaxTE {
				z.MaxTE = te
			}
		}
	}
	for c := range b.Cols {
		v := &b.Cols[c]
		zc := &z.Cols[c]
		zc.Min, zc.Max = value.Null, value.Null
		switch v.ph {
		case physInt:
			zoneTyped(v, v.Ints, zc, value.NewInt)
			continue
		case physStr:
			zoneTyped(v, v.Strs, zc, value.NewString)
			continue
		case physFloat:
			zoneFloats(v, zc)
			continue
		}
		for i := 0; i < b.Len(); i++ {
			x := v.Value(i)
			if x.IsNull() {
				zc.Nulls++
				continue
			}
			if zc.Min.IsNull() || x.Compare(zc.Min) < 0 {
				zc.Min = x
			}
			if zc.Max.IsNull() || x.Compare(zc.Max) > 0 {
				zc.Max = x
			}
		}
	}
	return z
}

// zoneTyped is ZoneOf's loop over flat int or string storage, where
// value.Compare is the native order: same result, no boxing per row.
func zoneTyped[T int64 | string](v *Vec, xs []T, zc *ZoneCol, box func(T) value.Value) {
	var lo, hi T
	seen := false
	for i, x := range xs {
		if v.IsNull(i) {
			zc.Nulls++
			continue
		}
		if !seen {
			lo, hi, seen = x, x, true
			continue
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	if seen {
		zc.Min, zc.Max = box(lo), box(hi)
	}
}

// zoneFloats is zoneTyped for floats under value.Compare's order: NaN
// sorts first and -0 equals 0, so the first of equal values is kept.
func zoneFloats(v *Vec, zc *ZoneCol) {
	var lo, hi float64
	seen := false
	for i, x := range v.Floats {
		if v.IsNull(i) {
			zc.Nulls++
			continue
		}
		nan := math.IsNaN(x)
		switch {
		case !seen:
			lo, hi, seen = x, x, true
		case x < lo || nan && !math.IsNaN(lo):
			lo = x
		case x > hi || !nan && math.IsNaN(hi):
			hi = x
		}
	}
	if seen {
		zc.Min, zc.Max = value.NewFloat(lo), value.NewFloat(hi)
	}
}
