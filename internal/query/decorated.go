package query

import (
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// decoratedSearch runs the bound-tuple DFS behind all decorated-path
// evaluation. For the audited row logRow it enumerates instance bindings of
// the base path that satisfy every decoration, invoking yield for each; a
// false return from yield stops the search. Decorations are checked as soon
// as all instances they reference are bound, pruning the search early.
func (ev *Evaluator) decoratedSearch(dp pathmodel.DecoratedPath, logRow int, yield func(InstanceBinding) bool) {
	base := dp.Base
	insts := base.Instances()
	conds := base.Conds()
	logRowVals := ev.log.Row(logRow)

	// value resolves a decoration reference against the audited row or the
	// currently bound rows.
	rows := make([]int, 0, len(insts)-1)
	value := func(r pathmodel.Ref) relation.Value {
		if r.Inst == 0 {
			ci, ok := ev.log.ColumnIndex(r.Col)
			if !ok {
				panic("query: decoration references missing log column " + r.Col)
			}
			return logRowVals[ci]
		}
		t := ev.db.MustTable(insts[r.Inst].Table)
		return t.Get(rows[r.Inst-1], r.Col)
	}

	// decorationsReadyAt[i] lists decorations checkable once instances
	// 0..i are bound.
	decorationsReadyAt := make([][]pathmodel.Decoration, len(insts))
	for _, d := range dp.Decorations {
		decorationsReadyAt[d.MaxInst()] = append(decorationsReadyAt[d.MaxInst()], d)
	}
	check := func(boundInst int) bool {
		for _, d := range decorationsReadyAt[boundInst] {
			l := value(d.Left)
			var r relation.Value
			if d.Const != nil {
				r = *d.Const
			} else {
				r = value(d.Right)
			}
			if !d.Op.Eval(l.Compare(r)) {
				return false
			}
		}
		return true
	}

	patient, user := ev.logValues(logRow)

	stopped := false
	var dfs func(ci int, current relation.Value)
	dfs = func(ci int, current relation.Value) {
		if stopped {
			return
		}
		if ci == len(conds) {
			if !yield(InstanceBinding{Rows: append([]int(nil), rows...)}) {
				stopped = true
			}
			return
		}
		c := conds[ci]
		candidates := []relation.Value{current}
		if c.Via != nil {
			bt := ev.db.MustTable(c.Via.Table)
			candidates = bt.DistinctPairs(c.Via.FromColumn, c.Via.ToColumn)[current]
		}
		if c.RightInst == 0 {
			for _, v := range candidates {
				if v == user {
					dfs(ci+1, v)
					return
				}
			}
			return
		}
		in := insts[c.RightInst]
		t := ev.db.MustTable(in.Table)
		idx := t.Index(in.Entry)
		for _, v := range candidates {
			for _, r := range idx[v] {
				rows = append(rows, r)
				if check(c.RightInst) {
					next := relation.Null()
					if in.Exit != "" {
						next = t.Get(r, in.Exit)
					}
					dfs(ci+1, next)
				}
				rows = rows[:len(rows)-1]
				if stopped {
					return
				}
			}
		}
	}
	// Decorations involving only the audited log row are checked up front.
	if !check(0) {
		return
	}
	dfs(0, patient)
}

// ExplainedRowsDecorated returns one boolean per audited row: whether some
// instance binding of the decorated path explains it. Per Definition 3 the
// result is always a subset of ExplainedRows of the base path.
func (ev *Evaluator) ExplainedRowsDecorated(dp pathmodel.DecoratedPath) []bool {
	return ev.ExplainedRowsDecoratedRange(dp, 0, ev.numRows())
}

// ExplainedRowsDecoratedRange evaluates the decorated path over the
// half-open log-row range [lo, hi), returning hi-lo booleans: element i is
// ExplainedRowsDecorated(dp)[lo+i]. Decorated evaluation is per-row, so
// disjoint ranges concatenate to exactly the full result; this is the range
// primitive behind sharding a DecoratedTemplate mask across workers.
func (ev *Evaluator) ExplainedRowsDecoratedRange(dp pathmodel.DecoratedPath, lo, hi int) []bool {
	if lo < 0 || hi < lo || hi > ev.numRows() {
		panic("query: decorated range out of bounds")
	}
	ev.queriesEvaluated++
	out := make([]bool, hi-lo)
	for r := lo; r < hi; r++ {
		ev.decoratedSearch(dp, r, func(InstanceBinding) bool {
			out[r-lo] = true
			return false // first witness suffices
		})
	}
	return out
}

// SupportDecorated returns COUNT(DISTINCT Log.Lid) of the decorated
// template.
func (ev *Evaluator) SupportDecorated(dp pathmodel.DecoratedPath) int {
	n := 0
	for _, ok := range ev.ExplainedRowsDecorated(dp) {
		if ok {
			n++
		}
	}
	return n
}

// InstancesDecorated enumerates up to limit satisfying bindings for one
// audited row, for natural-language rendering.
func (ev *Evaluator) InstancesDecorated(dp pathmodel.DecoratedPath, logRow, limit int) []InstanceBinding {
	if limit <= 0 {
		limit = 1
	}
	var out []InstanceBinding
	ev.decoratedSearch(dp, logRow, func(b InstanceBinding) bool {
		out = append(out, b)
		return len(out) < limit
	})
	return out
}
