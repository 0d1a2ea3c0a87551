package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// AdjustMode selects between the two temporal primitives that share the
// plane-sweep executor function (Fig. 10): temporal alignment (Def. 11) and
// temporal normalization (Def. 9). In the paper's terms this is the
// `isalign` flag of ExecAdjustment.
type AdjustMode uint8

const (
	// ModeAlign produces, per left tuple, each distinct non-empty
	// intersection with a matching group tuple plus the maximal uncovered
	// gaps (temporal aligner, Def. 10).
	ModeAlign AdjustMode = iota
	// ModeNormalize splits each left tuple at every distinct split point
	// strictly inside its interval (temporal splitter, Def. 8).
	ModeNormalize
	// ModeGaps emits only the maximal uncovered sub-intervals of ModeAlign
	// and suppresses the intersections. It implements the paper's Sec. 8
	// future-work customization for the antijoin, whose reduction keeps
	// exactly the gap tuples: the aligned intersections can never survive
	// r ▷_{θ∧r.T=s.T} (sΦθr), so producing them is wasted work.
	ModeGaps
)

func (m AdjustMode) String() string {
	switch m {
	case ModeAlign:
		return "align"
	case ModeGaps:
		return "align-gaps"
	}
	return "normalize"
}

// GroupStrategy selects how ColFusedAdjust finds each left tuple's group
// members (the physical method of the group-construction join that the
// fused node absorbs).
type GroupStrategy uint8

const (
	// GroupHash builds a hash table over the group side's equi keys and
	// probes it per left tuple.
	GroupHash GroupStrategy = iota
	// GroupMerge key-sorts both sides by their equi keys and walks the
	// runs in lockstep.
	GroupMerge
	// GroupNestLoop scans the whole group side per left tuple (the
	// paper's fallback when θ has no equi keys).
	GroupNestLoop
	// GroupInterval uses the sort-by-start interval index over the group
	// side (the Sec. 8 access path; align modes only).
	GroupInterval
)

func (g GroupStrategy) String() string {
	return [...]string{"hash join", "merge join", "nestloop join", "interval-index join"}[g]
}

// span is one (P1, P2) pair fed into the sweep; for normalization only P1
// (the split point) is meaningful.
type span struct{ p1, p2 int64 }

// keyOperand reads one side of an equi-key conjunct: through a compiled
// vector accessor for the leaf shapes (columns, constants, valid time),
// otherwise by evaluating the expression over the boxed row — the path
// for operands like UPPER(x.a).
type keyOperand struct {
	col colVal
	e   expr.Expr
}

// ColFusedAdjust is the ALIGN/NORMALIZE operator. It fuses the
// group-construction join of Sec. 6.1/6.3 with the plane-sweep
// adjustment (Fig. 10): it never materializes concatenated join rows.
// The group side is drained into a columnar store once; each left row
// then finds its group members (hash, merge, nested-loop or
// interval-index strategy), reduces every member to a (P1, P2) span,
// sorts the small per-row span buffer and sweeps immediately, appending
// the left row's columns once per emitted segment.
//
//	align:     span = [max(l.Ts, r.Ts), min(l.Te, r.Te))   (overlaps only)
//	normalize: span = [p, p] for the split point p = right[PCol],
//	           kept only when strictly inside l's interval
//
// Equi keys match through order-preserving byte encodings (ω keys never
// match). The optional Residual runs per surviving candidate over a
// reused scratch concatenation of the pair's values, with env.T = the
// left row's interval. Output rows are the left rows with adjusted valid
// times, in left-input order (equi-key order under GroupMerge);
// alignment and normalization consumers are order-insensitive (relations
// are sets).
//
// The store is never reordered in place: it may alias a relation's
// cached columnar image (a bare ColScan, possibly over a SharedNode's
// result) that parallel exchange fragments read concurrently. The merge
// and interval strategies sort index permutations instead.
//
// The node assumes the left input is duplicate free (the paper's Sec. 3.1
// relation invariant): each left row sweeps its own group.
type ColFusedAdjust struct {
	batching
	Left, Right ColIterator
	Mode        AdjustMode
	Strategy    GroupStrategy
	// Keys are θ's equi conjuncts: Left bound against the left schema,
	// Right against the group side's schema.
	Keys []expr.EquiPair
	// Residual is the rest of θ, bound against Concat(left, right); nil
	// when θ was fully extracted into Keys.
	Residual expr.Expr
	// PCol is the group-side column holding the split point (normalize
	// only; -1 for the align modes).
	PCol int

	out schema.Schema

	lkeyOps []keyOperand
	rkeyOps []keyOperand

	store *colbatch.Batch // drained group side; read-only
	rkeys [][]byte        // encoded equi key per store row (nil: has ω)
	arena []byte
	// hash strategy: a chained flat hash table over rkeys
	seed  maphash.Seed
	heads []int32 // bucket -> store row index + 1
	mask  uint64
	chain []int32
	rhash []uint64 // full hash per store row, pre-filters probes
	// merge strategy: the drained left side, and permutations of both
	// sides sorted by encoded key (lkeys/rsorted in permutation order)
	lstore   *colbatch.Batch
	lperm    []int32
	lkeys    [][]byte
	rperm    []int32 // also the interval strategy's start-sorted rows
	rsorted  [][]byte
	rlo, rhi int // current group-side equi-key run
	// interval strategy (shares rperm)
	starts []int64
	maxDur int64

	boxed  []value.Value // key operand evaluation scratch
	concat []value.Value // residual scratch: left values, then store values
	env    expr.Env

	keyBuf   []byte
	spans    []span
	outB     colbatch.Batch
	lb       *colbatch.Batch
	lpos     int
	leftDone bool
}

// NewColFusedAdjust builds the node. For the align modes pass pCol < 0;
// for normalize, pCol must address a group-side column and the interval
// strategy is rejected (split points are nontemporal).
func NewColFusedAdjust(l, r ColIterator, mode AdjustMode, strategy GroupStrategy, keys []expr.EquiPair, residual expr.Expr, pCol int) (*ColFusedAdjust, error) {
	if mode == ModeNormalize {
		if pCol < 0 || pCol >= r.Schema().Len() {
			return nil, fmt.Errorf("exec: fused normalize split column %d out of range for %s", pCol, r.Schema())
		}
		if strategy == GroupInterval {
			return nil, fmt.Errorf("exec: fused normalize cannot use the interval-index strategy")
		}
	} else {
		pCol = -1
	}
	if strategy == GroupInterval && len(keys) > 0 {
		return nil, fmt.Errorf("exec: interval-index strategy requires a keyless θ")
	}
	if (strategy == GroupHash || strategy == GroupMerge) && len(keys) == 0 {
		return nil, fmt.Errorf("exec: %s strategy requires equi keys", strategy)
	}
	f := &ColFusedAdjust{
		Left: l, Right: r,
		Mode: mode, Strategy: strategy,
		Keys: keys, Residual: residual, PCol: pCol,
		out: l.Schema(),
	}
	operand := func(e expr.Expr) keyOperand {
		if cv, ok := compileOperand(e); ok {
			return keyOperand{col: cv}
		}
		return keyOperand{e: e}
	}
	for _, k := range keys {
		f.lkeyOps = append(f.lkeyOps, operand(k.Left))
		f.rkeyOps = append(f.rkeyOps, operand(k.Right))
	}
	return f, nil
}

// Schema implements ColIterator.
func (f *ColFusedAdjust) Schema() schema.Schema { return f.out }

// drainStore returns the whole content of an opened iterator as one
// batch without a selection vector. A bare columnar scan hands out the
// relation's cached image itself — aliased, so callers must only read
// it — which skips one full-relation copy per execution.
func drainStore(it ColIterator) (*colbatch.Batch, error) {
	if cs, ok := it.(*ColScan); ok {
		return cs.img, nil
	}
	st := colbatch.New(it.Schema())
	for {
		b, err := it.NextCol()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return st, nil
		}
		st.AppendBatch(b)
	}
}

// Open implements ColIterator: it drains the group side into the store,
// encodes its equi keys and builds the strategy's access structure.
func (f *ColFusedAdjust) Open() error {
	if err := f.Left.Open(); err != nil {
		return err
	}
	if err := f.Right.Open(); err != nil {
		return err
	}
	var err error
	if f.store, err = drainStore(f.Right); err != nil {
		return err
	}
	f.outB.ResetSchema(f.out)
	f.lb, f.lpos, f.leftDone = nil, 0, false
	f.arena = f.arena[:0]
	if f.rkeys, err = f.encodeKeys(f.rkeys[:0], f.rkeyOps, f.store, true); err != nil {
		return err
	}
	switch f.Strategy {
	case GroupHash:
		f.buildHash()
	case GroupMerge:
		return f.openMerge()
	case GroupInterval:
		f.openInterval()
	}
	return nil
}

// buildHash chains the store rows by key hash. A flat table instead of a
// Go map: buckets hold store-row-index+1, collisions thread through
// chain, and the stored full hashes pre-filter probes before the byte
// compare.
func (f *ColFusedAdjust) buildHash() {
	f.seed = maphash.MakeSeed()
	n := f.store.Len()
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if cap(f.heads) >= size {
		f.heads = f.heads[:size]
		clear(f.heads)
	} else {
		f.heads = make([]int32, size)
	}
	f.mask = uint64(size - 1)
	f.chain = f.chain[:0]
	f.rhash = f.rhash[:0]
	for j := 0; j < n; j++ {
		f.chain = append(f.chain, 0)
		f.rhash = append(f.rhash, 0)
		if f.rkeys[j] == nil {
			continue
		}
		h := maphash.Bytes(f.seed, f.rkeys[j])
		f.rhash[j] = h
		bkt := h & f.mask
		f.chain[j] = f.heads[bkt]
		f.heads[bkt] = int32(j) + 1
	}
}

// openMerge drains the left side and key-sorts permutations of both
// sides (group rows with ω keys dropped: they can never match); NextCol
// then visits left rows in key order while the group-side run only moves
// forward.
func (f *ColFusedAdjust) openMerge() error {
	var err error
	if f.lstore, err = drainStore(f.Left); err != nil {
		return err
	}
	if f.lkeys, err = f.encodeKeys(f.lkeys[:0], f.lkeyOps, f.lstore, false); err != nil {
		return err
	}
	f.lperm = slices.Grow(f.lperm[:0], f.lstore.Len())
	for i := 0; i < f.lstore.Len(); i++ {
		f.lperm = append(f.lperm, int32(i))
	}
	tuple.KeySort(f.lperm, f.lkeys)
	f.rperm, f.rsorted = f.rperm[:0], f.rsorted[:0]
	for j, k := range f.rkeys {
		if k != nil {
			f.rperm = append(f.rperm, int32(j))
			f.rsorted = append(f.rsorted, k)
		}
	}
	tuple.KeySort(f.rperm, f.rsorted)
	f.lb, f.rlo, f.rhi = f.lstore, 0, 0
	return nil
}

// openInterval sorts the store rows by start and records the longest
// duration, bounding the window that can overlap a left row.
func (f *ColFusedAdjust) openInterval() {
	ts, te := f.store.TS, f.store.TE
	f.maxDur = 0
	f.rperm = slices.Grow(f.rperm[:0], len(ts))
	for j := range ts {
		f.maxDur = max(f.maxDur, te[j]-ts[j])
		f.rperm = append(f.rperm, int32(j))
	}
	slices.SortFunc(f.rperm, func(a, b int32) int { return cmp.Compare(ts[a], ts[b]) })
	f.starts = slices.Grow(f.starts[:0], len(ts))
	for _, j := range f.rperm {
		f.starts = append(f.starts, ts[j])
	}
}

// encodeKeys appends the encoded equi key of every physical row of b to
// keys, backed by the shared arena; with nilOnNull, rows whose key has
// an ω component get nil instead.
func (f *ColFusedAdjust) encodeKeys(keys [][]byte, ops []keyOperand, b *colbatch.Batch, nilOnNull bool) ([][]byte, error) {
	if len(ops) == 0 {
		return keys, nil
	}
	for row := 0; row < b.Len(); row++ {
		start := len(f.arena)
		kb, hasNull, err := f.appendKey(f.arena, ops, b, row)
		if err != nil {
			return nil, err
		}
		if nilOnNull && hasNull {
			keys = append(keys, nil)
			continue
		}
		f.arena = kb
		keys = append(keys, kb[start:len(kb):len(kb)])
	}
	return keys, nil
}

// appendKey encodes the equi key of physical row `row` of b; hasNull
// reports an ω component (ω keys never match).
func (f *ColFusedAdjust) appendKey(dst []byte, ops []keyOperand, b *colbatch.Batch, row int) (_ []byte, hasNull bool, err error) {
	for _, op := range ops {
		var v value.Value
		if op.col != nil {
			v = op.col(b, row)
		} else {
			f.boxed = appendRowVals(f.boxed[:0], b, row)
			f.env = expr.Env{Vals: f.boxed, T: b.Interval(row)}
			if v, err = op.e.Eval(&f.env); err != nil {
				return dst, false, err
			}
		}
		if v.IsNull() {
			hasNull = true
		}
		dst = v.AppendKey(dst)
	}
	return dst, hasNull, nil
}

// appendRowVals appends the boxed values of physical row `row` of b.
func appendRowVals(dst []value.Value, b *colbatch.Batch, row int) []value.Value {
	for c := range b.Cols {
		dst = append(dst, b.Cols[c].Value(row))
	}
	return dst
}

// nextLeft advances to the next left row: the next key-sorted row of the
// left store under GroupMerge, else the next row of the left stream.
// ok=false when the left side is exhausted.
func (f *ColFusedAdjust) nextLeft() (row int, ok bool, err error) {
	if f.Strategy == GroupMerge {
		if f.lpos >= len(f.lperm) {
			return 0, false, nil
		}
		f.lpos++
		return int(f.lperm[f.lpos-1]), true, nil
	}
	for f.lb == nil || f.lpos >= f.lb.NumRows() {
		b, err := f.Left.NextCol()
		if err != nil || b == nil {
			return 0, false, err
		}
		f.lb, f.lpos = b, 0
	}
	f.lpos++
	return f.lb.RowAt(f.lpos - 1), true, nil
}

// NextCol implements ColIterator.
func (f *ColFusedAdjust) NextCol() (*colbatch.Batch, error) {
	f.outB.Reset()
	target := f.batchCap()
	for f.outB.Len() < target && !f.leftDone {
		row, ok, err := f.nextLeft()
		if err != nil {
			return nil, err
		}
		if !ok {
			f.leftDone = true
			continue
		}
		lts, lte := f.lb.TS[row], f.lb.TE[row]
		f.spans = f.spans[:0]
		if err := f.gather(row, lts, lte); err != nil {
			return nil, err
		}
		f.sweep(row, lts, lte)
	}
	if f.outB.Len() == 0 {
		return nil, nil
	}
	return &f.outB, nil
}

// gather collects the spans of left row `row` of f.lb under the group
// strategy.
func (f *ColFusedAdjust) gather(row int, lts, lte int64) error {
	if f.Residual != nil {
		f.concat = appendRowVals(f.concat[:0], f.lb, row)
	}
	switch f.Strategy {
	case GroupHash:
		kb, hasNull, err := f.appendKey(f.keyBuf[:0], f.lkeyOps, f.lb, row)
		f.keyBuf = kb
		if err != nil || hasNull { // ω keys never match: empty group, bare sweep
			return err
		}
		h := maphash.Bytes(f.seed, kb)
		if f.Residual == nil {
			for j := f.heads[h&f.mask]; j != 0; j = f.chain[j-1] {
				if f.rhash[j-1] == h && bytes.Equal(f.rkeys[j-1], kb) {
					f.addCandidate(int(j-1), lts, lte)
				}
			}
			return nil
		}
		for j := f.heads[h&f.mask]; j != 0; j = f.chain[j-1] {
			if f.rhash[j-1] == h && bytes.Equal(f.rkeys[j-1], kb) && f.addCandidate(int(j-1), lts, lte) {
				if err := f.checkResidual(int(j-1), lts, lte); err != nil {
					return err
				}
			}
		}
	case GroupNestLoop:
		var lk []byte
		if len(f.Keys) > 0 {
			kb, hasNull, err := f.appendKey(f.keyBuf[:0], f.lkeyOps, f.lb, row)
			f.keyBuf = kb
			if err != nil || hasNull {
				return err
			}
			lk = kb
		}
		n := f.store.Len()
		if lk == nil && f.Residual == nil {
			// θ = true: every store row is a candidate. This loop is the
			// quadratic hot spot, so it stays free of per-row checks.
			for j := 0; j < n; j++ {
				f.addCandidate(j, lts, lte)
			}
			return nil
		}
		for j := 0; j < n; j++ {
			if lk != nil && !bytes.Equal(f.rkeys[j], lk) {
				continue
			}
			if f.addCandidate(j, lts, lte) && f.Residual != nil {
				if err := f.checkResidual(j, lts, lte); err != nil {
					return err
				}
			}
		}
	case GroupMerge:
		// Both sides ascend by key, so the group-side run only moves
		// forward: reposition it at the first key >= lk when lk passed it.
		lk := f.lkeys[f.lpos-1]
		if f.rlo == f.rhi || bytes.Compare(f.rsorted[f.rlo], lk) < 0 {
			lo := f.rhi
			for lo < len(f.rsorted) && bytes.Compare(f.rsorted[lo], lk) < 0 {
				lo++
			}
			hi := lo
			for hi < len(f.rsorted) && bytes.Equal(f.rsorted[hi], lk) {
				hi++
			}
			f.rlo, f.rhi = lo, hi
		}
		if f.rlo == f.rhi || !bytes.Equal(f.rsorted[f.rlo], lk) {
			return nil
		}
		for i := f.rlo; i < f.rhi; i++ {
			if j := int(f.rperm[i]); f.addCandidate(j, lts, lte) && f.Residual != nil {
				if err := f.checkResidual(j, lts, lte); err != nil {
					return err
				}
			}
		}
	case GroupInterval:
		// Window (lts − maxDur, lte): the only starts whose rows can
		// overlap the left row.
		lo := lts - f.maxDur
		pos := sort.Search(len(f.starts), func(i int) bool { return f.starts[i] > lo })
		for ; pos < len(f.starts) && f.starts[pos] < lte; pos++ {
			if j := int(f.rperm[pos]); f.addCandidate(j, lts, lte) && f.Residual != nil {
				if err := f.checkResidual(j, lts, lte); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// addCandidate reduces the pair (current left row, store row j) to a span
// under the native temporal predicate and appends it; it reports whether
// the pair survived.
func (f *ColFusedAdjust) addCandidate(j int, lts, lte int64) bool {
	p1, p2 := lts, lte
	if f.Mode != ModeNormalize {
		// Align modes: overlap means a non-empty intersection.
		if ts := f.store.TS[j]; ts > p1 {
			p1 = ts
		}
		if te := f.store.TE[j]; te < p2 {
			p2 = te
		}
		if p1 >= p2 {
			return false
		}
	} else {
		pv := &f.store.Cols[f.PCol]
		if pv.IsNull(j) {
			return false
		}
		p := pv.Int(j)
		if p <= lts || p >= lte {
			return false // only points strictly inside split
		}
		p1, p2 = p, p
	}
	f.spans = append(f.spans, span{p1: p1, p2: p2})
	return true
}

// checkResidual evaluates the residual for the span addCandidate just
// appended for store row j, dropping it unless the residual holds. It
// runs over the left row's values (boxed once per left row by gather)
// followed by store row j's, with env.T the left row's interval.
func (f *ColFusedAdjust) checkResidual(j int, lts, lte int64) error {
	f.concat = appendRowVals(f.concat[:f.out.Len()], f.store, j)
	f.env = expr.Env{Vals: f.concat, T: interval.Interval{Ts: lts, Te: lte}}
	ok, err := expr.EvalBool(f.Residual, &f.env)
	if !ok {
		f.spans = f.spans[:len(f.spans)-1]
	}
	return err
}

// sweep is the Fig. 10 plane sweep over the gathered spans of one left
// row; emitted segments copy the left row's columns into the output
// batch.
func (f *ColFusedAdjust) sweep(row int, lts, lte int64) {
	slices.SortFunc(f.spans, func(a, b span) int {
		switch {
		case a.p1 < b.p1:
			return -1
		case a.p1 > b.p1:
			return 1
		case a.p2 < b.p2:
			return -1
		case a.p2 > b.p2:
			return 1
		}
		return 0
	})
	emit := func(ts, te int64) {
		if ts < te {
			f.outB.AppendFrom(f.lb, row, ts, te)
		}
	}
	sweep := lts
	if f.Mode == ModeNormalize {
		for _, sp := range f.spans {
			if sp.p1 <= sweep {
				continue // duplicate split point
			}
			emit(sweep, sp.p1)
			sweep = sp.p1
		}
		emit(sweep, lte)
		return
	}
	var lastP1, lastP2 int64
	lastSet := false
	for _, sp := range f.spans {
		// Gap before this intersection (first block of Fig. 10).
		if sweep < sp.p1 {
			emit(sweep, sp.p1)
			sweep = sp.p1
		}
		// The intersection itself, skipping adjacent duplicates; ModeGaps
		// advances the sweep without emitting it.
		if f.Mode != ModeGaps && (!lastSet || sp.p1 != lastP1 || sp.p2 != lastP2) {
			emit(sp.p1, sp.p2)
			lastP1, lastP2, lastSet = sp.p1, sp.p2, true
		}
		if sp.p2 > sweep {
			sweep = sp.p2
		}
	}
	// Trailing gap, or the whole interval when the group was empty (the
	// ω-padded row of the paper's left outer group join).
	emit(sweep, lte)
}

// Close implements ColIterator.
func (f *ColFusedAdjust) Close() error {
	f.store, f.lstore, f.lb = nil, nil, nil
	f.heads, f.chain, f.rhash = nil, nil, nil
	f.rkeys, f.lkeys, f.rsorted = nil, nil, nil
	f.lperm, f.rperm, f.starts = nil, nil, nil
	f.arena = nil
	err1 := f.Left.Close()
	err2 := f.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
