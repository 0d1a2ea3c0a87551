package core

import (
	"math/rand"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// strategyFlags builds flag sets that force each group strategy of the
// fused ALIGN/NORMALIZE node. The interval index only serves keyless θ;
// keyed θ falls back to the cheapest enabled method under its flags.
func strategyFlags() map[string]plan.Flags {
	ivx := plan.DefaultFlags()
	ivx.EnableIntervalIndex = true
	return map[string]plan.Flags{
		"hash":           {EnableHashJoin: true, EnableSort: true},
		"merge":          {EnableMergeJoin: true, EnableSort: true},
		"nestloop":       {EnableNestLoop: true, EnableSort: true},
		"interval-index": ivx,
	}
}

// fusedThetas covers the θ shapes the fused node handles differently:
// none, fully extracted equi keys, equi keys plus a residual, a keyless
// residual, and an equi key over a computed (non-column) operand.
func fusedThetas() map[string]expr.Expr {
	return map[string]expr.Expr{
		"nil":            nil,
		"equi":           thetaXY(),
		"equi+residual":  expr.And(thetaXY(), thetaVW()),
		"residual":       thetaVW(),
		"non-column-key": expr.Eq(expr.Call("ABS", expr.C("v")), expr.C("w")),
	}
}

// TestFusedAdjustMatchesOracle is the randomized differential test for
// the fused group-construction → sweep operator: under every forced
// group strategy, each operator whose reduction runs ALIGN or NORMALIZE
// must equal the oracle's definitional result on the same relations.
func TestFusedAdjustMatchesOracle(t *testing.T) {
	type op struct {
		core func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error)
		spec func(r, s *relation.Relation) (*relation.Relation, error)
	}
	ops := map[string]op{
		"aggregation": {
			func(a *Algebra, r, _ *relation.Relation) (*relation.Relation, error) {
				return a.Aggregation(r, []string{"x"}, []exec.AggSpec{
					{Func: exec.AggCountStar, Name: "c"},
					{Func: exec.AggSum, Arg: expr.C("v"), Name: "sv"},
				})
			},
			func(r, _ *relation.Relation) (*relation.Relation, error) {
				return oracle.Aggregation(r, []string{"x"}, []oracle.AggSpec{
					{Op: oracle.CountStar, Name: "c"},
					{Op: oracle.Sum, Arg: expr.C("v"), Name: "sv"},
				})
			},
		},
		// Global aggregation normalizes with B = ∅: a keyless splitter.
		"aggregation-global": {
			func(a *Algebra, r, _ *relation.Relation) (*relation.Relation, error) {
				return a.Aggregation(r, nil, []exec.AggSpec{{Func: exec.AggCountStar, Name: "c"}})
			},
			func(r, _ *relation.Relation) (*relation.Relation, error) {
				return oracle.Aggregation(r, nil, []oracle.AggSpec{{Op: oracle.CountStar, Name: "c"}})
			},
		},
		"projection": {
			func(a *Algebra, r, _ *relation.Relation) (*relation.Relation, error) { return a.Projection(r, "x") },
			func(r, _ *relation.Relation) (*relation.Relation, error) { return oracle.Projection(r, "x") },
		},
		"union":        {(*Algebra).Union, oracle.Union},
		"difference":   {(*Algebra).Difference, oracle.Difference},
		"intersection": {(*Algebra).Intersection, oracle.Intersection},
	}
	for name, theta := range fusedThetas() {
		ops["leftouter/"+name] = op{
			func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
				return a.LeftOuterJoin(r, s, theta)
			},
			func(r, s *relation.Relation) (*relation.Relation, error) { return oracle.LeftOuterJoin(r, s, theta) },
		}
		ops["fullouter/"+name] = op{
			func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
				return a.FullOuterJoin(r, s, theta)
			},
			func(r, s *relation.Relation) (*relation.Relation, error) { return oracle.FullOuterJoin(r, s, theta) },
		}
		ops["antijoin/"+name] = op{
			func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
				return a.AntiJoin(r, s, theta)
			},
			func(r, s *relation.Relation) (*relation.Relation, error) { return oracle.AntiJoin(r, s, theta) },
		}
	}

	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randrel.Generate(rng, randrel.DefaultConfig(attrs2()...))
		s := randrel.Generate(rng, randrel.DefaultConfig(attrs2s()...))
		// The set operations need a union-compatible second operand.
		r2 := randrel.Generate(rng, randrel.DefaultConfig(attrs2()...))
		for fname, flags := range strategyFlags() {
			for _, rewrite := range []bool{false, true} {
				flags.EnableAntiJoinRewrite = rewrite
				a := New(flags)
				for oname, o := range ops {
					if rewrite && !strings.HasPrefix(oname, "antijoin/") {
						continue // the rewrite only changes the antijoin
					}
					second := s
					if !strings.Contains(oname, "/") {
						second = r2
					}
					got, err := o.core(a, r, second)
					if err != nil {
						t.Fatalf("seed %d %s under %s (rewrite=%v): %v", seed, oname, fname, rewrite, err)
					}
					want, err := o.spec(r, second)
					if err != nil {
						t.Fatalf("seed %d %s oracle: %v", seed, oname, err)
					}
					if !relation.SetEqual(got, want) {
						onlyGot, onlyWant := relation.Diff(got, want)
						t.Fatalf("seed %d %s under %s (rewrite=%v) disagrees with the oracle\nonly fused: %v\nonly oracle: %v\nr:\n%s\ns:\n%s",
							seed, oname, fname, rewrite, onlyGot, onlyWant, r, second)
					}
				}
			}
		}
	}
}

// TestFusedAdjustIntervalIndex: alignment through the interval-index
// strategy (keyless θ) equals the nested-loop strategy, and the outer
// join it feeds equals the oracle.
func TestFusedAdjustIntervalIndex(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}}
	attrsS := []schema.Attr{{Name: "y", Type: value.KindString}}
	ivx := plan.DefaultFlags()
	ivx.EnableIntervalIndex = true
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
		s := randrel.Generate(rng, randrel.DefaultConfig(attrsS...))
		got, err := New(ivx).Align(r, s, nil)
		if err != nil {
			t.Fatalf("seed %d interval-index: %v", seed, err)
		}
		nl, err := Default().Align(r, s, nil)
		if err != nil {
			t.Fatalf("seed %d nestloop: %v", seed, err)
		}
		if !relation.SetEqual(nl, got) {
			t.Fatalf("seed %d: interval-index alignment diverges\nr:\n%s\ns:\n%s", seed, r, s)
		}
		gotJ, err := New(ivx).LeftOuterJoin(r, s, nil)
		if err != nil {
			t.Fatalf("seed %d interval-index join: %v", seed, err)
		}
		wantJ, err := oracle.LeftOuterJoin(r, s, nil)
		if err != nil {
			t.Fatalf("seed %d oracle: %v", seed, err)
		}
		if !relation.SetEqual(wantJ, gotJ) {
			t.Fatalf("seed %d: interval-index outer join disagrees with the oracle\nr:\n%s\ns:\n%s", seed, r, s)
		}
	}
}

// TestFusedAdjustParallel: the exchange rewrite composes with the fused
// fragment — parallel ALIGN and NORMALIZE match the serial plans.
func TestFusedAdjustParallel(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	theta := expr.Eq(expr.CI(0, value.KindString), expr.CI(2, value.KindString))
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
		s := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
		want, err := Default().Align(r, s, theta)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		wantN, err := Default().Normalize(r, r, "x")
		if err != nil {
			t.Fatalf("seed %d serial normalize: %v", seed, err)
		}
		for _, v := range []struct{ dop, batch int }{{2, 1}, {4, 3}, {4, 0}} {
			a := New(parallelFlags(v.dop, v.batch))
			got, err := a.Align(r, s, theta)
			if err != nil {
				t.Fatalf("seed %d dop=%d: %v", seed, v.dop, err)
			}
			if !relation.SetEqual(want, got) {
				x, y := relation.Diff(want, got)
				t.Fatalf("seed %d dop=%d batch=%d: parallel fused differs\nonly serial: %v\nonly parallel: %v",
					seed, v.dop, v.batch, x, y)
			}
			gotN, err := a.Normalize(r, r, "x")
			if err != nil {
				t.Fatalf("seed %d dop=%d normalize: %v", seed, v.dop, err)
			}
			if !relation.SetEqual(wantN, gotN) {
				t.Fatalf("seed %d dop=%d: parallel fused normalize differs", seed, v.dop)
			}
		}
	}
}

// TestFusedAdjustPlanShape: EXPLAIN renders the fused node with its mode
// and the group strategy the flags force.
func TestFusedAdjustPlanShape(t *testing.T) {
	r := relation.NewBuilder("x string", "v int").Row(0, 5, "a", 1).MustBuild()
	s := relation.NewBuilder("y string", "w int").Row(2, 7, "a", 2).MustBuild()
	theta, err := BindTheta(r, s, expr.Eq(expr.C("x"), expr.C("y")))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	for name, flags := range strategyFlags() {
		a := New(flags)
		text := plan.Explain(a.AlignPlan(a.Planner().Scan(r, "r"), a.Planner().Scan(s, "s"), theta))
		if !strings.Contains(text, "FusedAdjust align") {
			t.Fatalf("%s: plan missing FusedAdjust node:\n%s", name, text)
		}
		if name != "interval-index" && !strings.Contains(text, "("+name+" join)") {
			t.Fatalf("%s: plan label missing the forced group strategy:\n%s", name, text)
		}
		if strings.Contains(text, "Sort") {
			t.Fatalf("%s: the fused node needs no sort:\n%s", name, text)
		}
	}
}
