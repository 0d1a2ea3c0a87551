package exec

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/value"
)

// keyX equates the leading string column x of both sides.
func keyX() []expr.EquiPair {
	x := expr.ColIdx{Idx: 0, Typ: value.KindString}
	return []expr.EquiPair{{Left: x, Right: x}}
}

// runFused adjusts left against its group side under every keyed group
// strategy (grouping by x) and requires them to agree.
func runFused(t *testing.T, left, right *relation.Relation, mode AdjustMode, pCol int) *relation.Relation {
	t.Helper()
	var first *relation.Relation
	for _, strat := range []GroupStrategy{GroupHash, GroupMerge, GroupNestLoop} {
		op, err := NewColFusedAdjust(NewColScan(left), NewColScan(right), mode, strat, keyX(), nil, pCol)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		out, err := Collect(NewMaterialize(op))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if first == nil {
			first = out
		} else if !relation.SetEqual(first, out) {
			t.Fatalf("%v disagrees:\n%s\nvs %v:\n%s", strat, out, GroupHash, first)
		}
	}
	return first
}

func assertRel(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	if !relation.SetEqual(got, want) {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAdjustAlignFig11 replays the four invocations of Fig. 11: group g1
// with intersections [2012/2..4) and [2012/3..4) inside r1 = [2012/1..6).
func TestAdjustAlignFig11(t *testing.T) {
	left := relation.NewBuilder("x string").Row(0, 5, "r1").MustBuild()
	group := relation.NewBuilder("x string").Row(1, 3, "r1").Row(2, 3, "r1").MustBuild()
	assertRel(t, runFused(t, left, group, ModeAlign, -1), relation.NewBuilder("x string").
		Row(0, 1, "r1"). // gap before first intersection
		Row(1, 3, "r1"). // first intersection
		Row(2, 3, "r1"). // second intersection
		Row(3, 5, "r1"). // remaining tail
		MustBuild())
}

// TestAdjustAlignDedup: identical intersections from different group
// members collapse (set semantics, Sec. 6.1).
func TestAdjustAlignDedup(t *testing.T) {
	left := relation.NewBuilder("x string").Row(0, 10, "r1").MustBuild()
	group := relation.NewBuilder("x string", "w int").
		Row(2, 4, "r1", 1).
		Row(2, 4, "r1", 2).
		Row(2, 4, "r1", 3).
		MustBuild()
	assertRel(t, runFused(t, left, group, ModeAlign, -1), relation.NewBuilder("x string").
		Row(0, 2, "r1").
		Row(2, 4, "r1").
		Row(4, 10, "r1").
		MustBuild())
}

// TestAdjustAlignEmptyGroup: a left tuple without group members keeps its
// whole interval (the ω-padded row of the group join).
func TestAdjustAlignEmptyGroup(t *testing.T) {
	left := relation.NewBuilder("x string").Row(3, 9, "r1").MustBuild()
	group := relation.NewBuilder("x string").Row(3, 9, "r2").MustBuild()
	want := relation.NewBuilder("x string").Row(3, 9, "r1").MustBuild()
	assertRel(t, runFused(t, left, group, ModeAlign, -1), want)
	assertRel(t, runFused(t, left, group, ModeGaps, -1), want)
}

// TestAdjustAlignCoveredPrefix: an intersection covering the whole left
// interval leaves no gaps.
func TestAdjustAlignCoveredPrefix(t *testing.T) {
	left := relation.NewBuilder("x string").Row(2, 6, "r1").MustBuild()
	group := relation.NewBuilder("x string").Row(1, 7, "r1").Row(3, 5, "r1").MustBuild()
	assertRel(t, runFused(t, left, group, ModeAlign, -1), relation.NewBuilder("x string").
		Row(2, 6, "r1").
		Row(3, 5, "r1").
		MustBuild())
	if got := runFused(t, left, group, ModeGaps, -1); got.Len() != 0 {
		t.Fatalf("covered tuple must leave no gaps, got:\n%s", got)
	}
}

// TestAdjustGroupBoundary: left tuples sweep separately, including
// value-equivalent left tuples with different timestamps.
func TestAdjustGroupBoundary(t *testing.T) {
	left := relation.NewBuilder("x string").
		Row(0, 4, "a").
		Row(6, 9, "a").
		Row(0, 2, "b").
		MustBuild()
	group := relation.NewBuilder("x string").Row(1, 2, "a").Row(0, 2, "b").MustBuild()
	assertRel(t, runFused(t, left, group, ModeAlign, -1), relation.NewBuilder("x string").
		Row(0, 1, "a").
		Row(1, 2, "a").
		Row(2, 4, "a").
		Row(6, 9, "a").
		Row(0, 2, "b").
		MustBuild())
}

// TestAdjustNormalize: split points partition the interval; duplicates and
// points on or outside the boundary are ignored.
func TestAdjustNormalize(t *testing.T) {
	left := relation.NewBuilder("x string").Row(0, 10, "r1").MustBuild()
	points := relation.NewBuilder("x string", "p int").
		Row(0, 1, "r1", 3).
		Row(1, 2, "r1", 3). // duplicate split point
		Row(0, 1, "r1", 7).
		Row(0, 1, "r1", 0).  // boundary
		Row(0, 1, "r1", 12). // outside
		Row(0, 1, "r2", 5).  // other group
		MustBuild()
	assertRel(t, runFused(t, left, points, ModeNormalize, 1), relation.NewBuilder("x string").
		Row(0, 3, "r1").
		Row(3, 7, "r1").
		Row(7, 10, "r1").
		MustBuild())
}

// TestAdjustNormalizeNoPoints: no split points reproduce the input tuple.
func TestAdjustNormalizeNoPoints(t *testing.T) {
	left := relation.NewBuilder("x string").Row(5, 8, "r1").MustBuild()
	points := relation.NewBuilder("x string", "p int").MustBuild()
	assertRel(t, runFused(t, left, points, ModeNormalize, 1),
		relation.NewBuilder("x string").Row(5, 8, "r1").MustBuild())
}

// TestAdjustValidation covers constructor errors.
func TestAdjustValidation(t *testing.T) {
	rel := relation.NewBuilder("x string", "p int").MustBuild()
	scan := func() ColIterator { return NewColScan(rel) }
	cases := []struct {
		name  string
		mode  AdjustMode
		strat GroupStrategy
		keys  []expr.EquiPair
		pCol  int
	}{
		{"normalize split column out of range", ModeNormalize, GroupHash, keyX(), 2},
		{"normalize without split column", ModeNormalize, GroupNestLoop, nil, -1},
		{"normalize over the interval index", ModeNormalize, GroupInterval, nil, 1},
		{"interval index with equi keys", ModeAlign, GroupInterval, keyX(), -1},
		{"hash without equi keys", ModeAlign, GroupHash, nil, -1},
		{"merge without equi keys", ModeGaps, GroupMerge, nil, -1},
	}
	for _, c := range cases {
		if _, err := NewColFusedAdjust(scan(), scan(), c.mode, c.strat, c.keys, nil, c.pCol); err == nil {
			t.Errorf("%s: want an error", c.name)
		}
	}
}

// TestColFusedAdjustSharedImage runs the merge and interval-index
// strategies repeatedly and concurrently over one relation's cached
// columnar image on both sides, as DOP 4 exchange fragments over a
// broadcast group side do. The operator sorts index permutations, so the
// image's row order must be unchanged (and -race quiet).
func TestColFusedAdjustSharedImage(t *testing.T) {
	rel := colTestRel(rand.New(rand.NewSource(7)), 300, false).Dedup()
	img := rel.Columnar()
	before := imageKeys(img.Len(), img.AppendRowKey)
	k := expr.ColIdx{Idx: 0, Typ: value.KindInt}
	keys := []expr.EquiPair{{Left: k, Right: k}}
	run := func(strat GroupStrategy) (*relation.Relation, error) {
		var ks []expr.EquiPair
		if strat == GroupMerge {
			ks = keys
		}
		op, err := NewColFusedAdjust(NewColScan(rel), NewColScan(rel), ModeAlign, strat, ks, nil, -1)
		if err != nil {
			return nil, err
		}
		return Collect(NewMaterialize(op))
	}
	for _, strat := range []GroupStrategy{GroupMerge, GroupInterval} {
		want, err := run(strat)
		if err != nil {
			t.Fatal(err)
		}
		const dop = 4
		got := make([]*relation.Relation, dop+1)
		errs := make([]error, dop+1)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = run(strat)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%v run %d: %v", strat, i, errs[i])
			}
			if !relation.SetEqual(got[i], want) {
				t.Fatalf("%v run %d differs from the first run", strat, i)
			}
		}
		if after := imageKeys(img.Len(), img.AppendRowKey); !equalKeys(before, after) {
			t.Fatalf("%v reordered the shared columnar image", strat)
		}
		if rel.Columnar() != img {
			t.Fatalf("%v replaced the cached image", strat)
		}
	}
}

func imageKeys(n int, appendKey func([]byte, int) []byte) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = appendKey(nil, i)
	}
	return keys
}

func equalKeys(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestColFusedAdjustKeyEvalError: a key operand the columnar compiler
// does not cover is evaluated per row, and its evaluation error comes
// back from the operator (Open for the group side, NextCol for the left
// side) instead of panicking.
func TestColFusedAdjustKeyEvalError(t *testing.T) {
	rel := relation.NewBuilder("x string").Row(0, 5, "a").Row(2, 7, "b").MustBuild()
	x := expr.ColIdx{Idx: 0, Typ: value.KindString}
	bad := expr.Add(x, expr.Int(1)) // string + int fails at evaluation
	for _, side := range []string{"left", "right"} {
		for _, strat := range []GroupStrategy{GroupHash, GroupMerge, GroupNestLoop} {
			pair := expr.EquiPair{Left: bad, Right: x}
			if side == "right" {
				pair = expr.EquiPair{Left: x, Right: bad}
			}
			op, err := NewColFusedAdjust(NewColScan(rel), NewColScan(rel), ModeAlign, strat, []expr.EquiPair{pair}, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Collect(NewMaterialize(op))
			var pe *PanicError
			if err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), "applied to") {
				t.Fatalf("%s key, %v: want the evaluation error, got %v", side, strat, err)
			}
		}
	}
}

// TestColFusedAdjustResidualError: a residual that does not evaluate to
// a bool is reported as an error.
func TestColFusedAdjustResidualError(t *testing.T) {
	rel := relation.NewBuilder("x string").Row(0, 5, "a").MustBuild()
	op, err := NewColFusedAdjust(NewColScan(rel), NewColScan(rel), ModeAlign, GroupNestLoop, nil, expr.Int(1), -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(NewMaterialize(op)); err == nil || !strings.Contains(err.Error(), "want bool") {
		t.Fatalf("want a predicate type error, got %v", err)
	}
}
