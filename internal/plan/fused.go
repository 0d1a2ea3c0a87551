package plan

import (
	"fmt"
	"math"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/stats"
)

// FusedAdjustNode is the logical node for ALIGN/NORMALIZE: the
// group-construction join and the plane sweep fused into a single
// operator (exec.ColFusedAdjust) that never materializes concatenated
// join rows. The group strategy (hash, merge, nested loop, interval
// index) is chosen at construction exactly like JoinNode's method —
// candidate costs plus DisableCost for disabled paths — so the planner
// flags that steer Fig. 13's join-method series steer the fused node the
// same way.
type FusedAdjustNode struct {
	Left, Right Node
	Mode        exec.AdjustMode
	Strategy    exec.GroupStrategy
	Keys        []expr.EquiPair
	Residual    expr.Expr
	PCol        int

	out   schema.Schema
	cost  float64
	batch int
}

// FusedAlign builds the fused aligner for r Φ_θ s (modes align or gaps).
// theta is bound against Concat(r, s) and may be nil.
func (p *Planner) FusedAlign(r, s Node, theta expr.Expr, mode exec.AdjustMode) *FusedAdjustNode {
	var keys []expr.EquiPair
	var residual expr.Expr
	if theta != nil {
		keys, residual = expr.SplitJoinCondition(theta, r.Schema().Len())
	}
	n := &FusedAdjustNode{
		Left: r, Right: s, Mode: mode,
		Keys: keys, Residual: residual, PCol: -1,
		out: r.Schema(), batch: p.Flags.BatchSize,
	}
	n.choose(p.Flags)
	return n
}

// FusedNormalize builds the fused splitter N_B(r; points): keys equate
// r's grouping attributes with the point relation's leading columns, and
// pCol is the split-point column in the point relation.
func (p *Planner) FusedNormalize(r, points Node, keys []expr.EquiPair, pCol int) *FusedAdjustNode {
	n := &FusedAdjustNode{
		Left: r, Right: points, Mode: exec.ModeNormalize,
		Keys: keys, PCol: pCol,
		out: r.Schema(), batch: p.Flags.BatchSize,
	}
	n.choose(p.Flags)
	return n
}

// FusedAdjustFrom rebuilds a fused adjust node from its decomposed parts
// over (possibly rewritten) inputs, re-running strategy choice under the
// planner's flags and the inputs' statistics. The optimizer uses it after
// pushing predicates below the node.
func (p *Planner) FusedAdjustFrom(l, r Node, mode exec.AdjustMode, keys []expr.EquiPair, residual expr.Expr, pCol int) *FusedAdjustNode {
	n := &FusedAdjustNode{
		Left: l, Right: r, Mode: mode,
		Keys: keys, Residual: residual, PCol: pCol,
		out: l.Schema(), batch: p.Flags.BatchSize,
	}
	n.choose(p.Flags)
	return n
}

// choose picks the group strategy with JoinNode's cost candidates, plus
// the interval index (align only, keyless θ) which — matching the classic
// plan's behaviour — wins whenever its flag is on and θ has no equi keys.
func (n *FusedAdjustNode) choose(flags Flags) {
	lr, rr := math.Max(n.Left.Rows(), 1), math.Max(n.Right.Rows(), 1)
	base := n.Left.Cost() + n.Right.Cost()

	if len(n.Keys) == 0 && n.Mode != exec.ModeNormalize && flags.EnableIntervalIndex {
		n.Strategy = exec.GroupInterval
		n.cost = base +
			2*CPUOperatorCost*rr*math.Log2(rr+1) +
			lr*CPUOperatorCost*math.Log2(rr+1) +
			lr*3*CPUOperatorCost
		return
	}

	nlCost := base + lr*rr*CPUOperatorCost + rr*CPUTupleCost
	if !flags.EnableNestLoop {
		nlCost += DisableCost
	}
	best, bestCost := exec.GroupNestLoop, nlCost

	if len(n.Keys) > 0 {
		hashCost := base + rr*(CPUOperatorCost+CPUTupleCost) + lr*CPUOperatorCost*2
		if !flags.EnableHashJoin {
			hashCost += DisableCost
		}
		if hashCost < bestCost {
			best, bestCost = exec.GroupHash, hashCost
		}
		mergeCost := base +
			2*CPUOperatorCost*lr*math.Log2(lr+1) +
			2*CPUOperatorCost*rr*math.Log2(rr+1) +
			(lr+rr)*CPUOperatorCost
		if !flags.EnableMergeJoin {
			mergeCost += DisableCost
		}
		if mergeCost < bestCost {
			best, bestCost = exec.GroupMerge, mergeCost
		}
	}
	n.Strategy = best
	// The sweep itself: the paper's Sec. 6.2/6.3 per-row adjustment cost.
	n.cost = bestCost + 2*CPUOperatorCost*n.Rows()
}

func (n *FusedAdjustNode) Schema() schema.Schema { return n.out }
func (n *FusedAdjustNode) Children() []Node      { return []Node{n.Left, n.Right} }

// Rows follows the paper's estimates (Sec. 6.2/6.3): alignment emits ~3
// rows per group-join row, normalization ~2, with the group join scaled
// by its key selectivity like JoinNode. With interval statistics on both
// inputs the group join is additionally scaled by the overlap fraction —
// group construction only pairs tuples whose valid times overlap, which
// is exactly what the overlap profile estimates.
func (n *FusedAdjustNode) Rows() float64 {
	lr, rr := math.Max(n.Left.Rows(), 1), math.Max(n.Right.Rows(), 1)
	ls, rs := NodeStats(n.Left), NodeStats(n.Right)
	f, hasOverlap := stats.OverlapFrac(ls, rs)
	sel := RangeSelectivity
	switch {
	case len(n.Keys) > 0:
		// Equi keys dominate; alignment's group join additionally keeps
		// only overlapping pairs, which the overlap profile quantifies.
		sel = joinSelectivity(expr.Bool(true), n.Keys, ls, rs)
		if n.Mode != exec.ModeNormalize && hasOverlap {
			sel *= f
		}
	case n.Mode != exec.ModeNormalize && hasOverlap:
		// Keyless θ: the group join is exactly the overlap join.
		sel = f
	}
	sel = clampSel(sel, lr*rr)
	joinRows := math.Max(lr*rr*sel, lr) // left outer: at least one row per left tuple
	if n.Mode == exec.ModeNormalize {
		return 2 * joinRows
	}
	return 3 * joinRows
}

// Stats reports the left input's column statistics at the adjusted
// cardinality: the fused node emits left rows with rewritten valid times.
func (n *FusedAdjustNode) Stats() *stats.Table {
	in := NodeStats(n.Left)
	if in == nil {
		return nil
	}
	return &stats.Table{Rows: int64(n.Rows()), Cols: in.Cols}
}

func (n *FusedAdjustNode) Cost() float64 { return n.cost }

// Build runs the columnar operator — the only ALIGN/NORMALIZE
// implementation — even under ctx.Instrument or DisableColumnar, which
// govern every other node, and materializes its output rows.
func (n *FusedAdjustNode) Build(ctx *ExecCtx) (exec.Iterator, error) {
	fa, err := n.buildCol(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.instrument(n, exec.NewMaterialize(fa)), nil
}

// buildCol bridges each input into the columnar operator: inputs that
// cannot build columnar are built as rows and adapted with ToCol.
func (n *FusedAdjustNode) buildCol(ctx *ExecCtx) (exec.ColIterator, error) {
	l, err := toColInput(n.Left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := toColInput(n.Right, ctx)
	if err != nil {
		return nil, err
	}
	fa, err := exec.NewColFusedAdjust(l, r, n.Mode, n.Strategy, bindPairs(ctx, n.Keys), ctx.bind(n.Residual), n.PCol)
	if err != nil {
		return nil, err
	}
	return exec.ApplyColBatch(fa, n.batch), nil
}

func (n *FusedAdjustNode) Label() string {
	return fmt.Sprintf("FusedAdjust %s (%s)", n.Mode, n.Strategy)
}
