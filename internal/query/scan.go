package query

import (
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// SupportScan computes the same COUNT(DISTINCT Log.Lid) as Support with
// none of the engine's machinery: a per-row nested join over relation.Value
// rows in which every hop is a full linear scan of the joined table — no
// dictionary codes, no hash or coded indexes, no DISTINCT projections, no
// plan. It is the index-on/index-off ablation counterpart and the
// differential oracle the coded evaluator is tested against: it never
// touches the tables' index caches or the dictionary, so it validates
// results independently of both.
func (ev *Evaluator) SupportScan(p pathmodel.Path) int {
	insts := p.Instances()
	conds := p.Conds()
	n := ev.log.NumRows()
	starts := make([]relation.Value, n)
	ends := make([]relation.Value, n)
	for r := range n {
		patient, user := ev.logValues(r)
		if p.Forward() {
			starts[r], ends[r] = patient, user
		} else {
			starts[r], ends[r] = user, patient
		}
	}

	var exists func(ci int, current relation.Value, r int) bool
	exists = func(ci int, current relation.Value, r int) bool {
		if ci == len(conds) {
			return true
		}
		c := conds[ci]
		candidates := []relation.Value{current}
		if c.Via != nil {
			candidates = candidates[:0]
			bt := ev.db.MustTable(c.Via.Table)
			fi, _ := bt.ColumnIndex(c.Via.FromColumn)
			ti, _ := bt.ColumnIndex(c.Via.ToColumn)
			for br := 0; br < bt.NumRows(); br++ {
				row := bt.Row(br)
				if row[fi] == current {
					candidates = append(candidates, row[ti])
				}
			}
		}
		if c.RightInst == 0 {
			for _, v := range candidates {
				if v == ends[r] {
					return true
				}
			}
			return false
		}
		in := insts[c.RightInst]
		t := ev.db.MustTable(in.Table)
		ei, _ := t.ColumnIndex(in.Entry)
		var xi = -1
		if in.Exit != "" {
			xi, _ = t.ColumnIndex(in.Exit)
		}
		for _, v := range candidates {
			for tr := 0; tr < t.NumRows(); tr++ {
				row := t.Row(tr)
				if row[ei] != v {
					continue
				}
				next := relation.Null()
				if xi >= 0 {
					next = row[xi]
				}
				if exists(ci+1, next, r) {
					return true
				}
			}
		}
		return false
	}

	count := 0
	for r := range starts {
		if exists(0, starts[r], r) {
			count++
		}
	}
	return count
}
