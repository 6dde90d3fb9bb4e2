// Package accesslog provides views over the access log table: day-range
// slices, first-access extraction, and log substitution into a database.
// The paper's evaluation repeatedly re-runs mining and template evaluation
// over different log subsets (days 1-6, single days, first accesses only,
// real+fake combined logs); these helpers build those subsets while sharing
// the underlying event tables.
package accesslog

import (
	"sort"

	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// Columns of the access log, in schema order.
var Columns = []string{
	pathmodel.LogIDColumn,
	pathmodel.LogDateColumn,
	pathmodel.LogUserColumn,
	pathmodel.LogPatientColumn,
}

// NewLogTable returns an empty table with the access-log schema and the
// given name.
func NewLogTable(name string) *relation.Table {
	return relation.NewTable(name, Columns...)
}

// FilterDays returns the log rows whose date lies in [fromDay, toDay]
// (inclusive day indexes).
func FilterDays(log *relation.Table, fromDay, toDay int) *relation.Table {
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	return log.Filter(log.Name(), func(row []relation.Value) bool {
		d := int(row[di].AsInt())
		return d >= fromDay && d <= toDay
	})
}

// FirstAccesses returns the subset of log rows that are first accesses: for
// each (user, patient) pair, the earliest access by (date, Lid). As the
// paper notes (§5.3.1), truncation makes some repeat accesses look like
// first accesses; the same artifact applies here when the log is sliced.
func FirstAccesses(log *relation.Table) *relation.Table {
	type pair struct{ u, p relation.Value }
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	li, _ := log.ColumnIndex(pathmodel.LogIDColumn)

	best := make(map[pair]int) // row index of earliest access
	for r := 0; r < log.NumRows(); r++ {
		row := log.Row(r)
		k := pair{row[ui], row[pi]}
		b, ok := best[k]
		if !ok {
			best[k] = r
			continue
		}
		brow := log.Row(b)
		if row[di].AsInt() < brow[di].AsInt() ||
			(row[di].AsInt() == brow[di].AsInt() && row[li].AsInt() < brow[li].AsInt()) {
			best[k] = r
		}
	}
	keep := make([]int, 0, len(best))
	for _, r := range best {
		keep = append(keep, r)
	}
	sort.Ints(keep)

	out := relation.NewTable(log.Name(), log.Columns()...)
	for _, r := range keep {
		out.Append(log.Row(r)...)
	}
	return out
}

// FirstAccessRows returns a boolean per row of log marking whether that row
// is the first access by its (user, patient) pair within the log.
func FirstAccessRows(log *relation.Table) []bool {
	type pair struct{ u, p relation.Value }
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	li, _ := log.ColumnIndex(pathmodel.LogIDColumn)

	best := make(map[pair]int)
	for r := 0; r < log.NumRows(); r++ {
		row := log.Row(r)
		k := pair{row[ui], row[pi]}
		b, ok := best[k]
		if !ok {
			best[k] = r
			continue
		}
		brow := log.Row(b)
		if row[di].AsInt() < brow[di].AsInt() ||
			(row[di].AsInt() == brow[di].AsInt() && row[li].AsInt() < brow[li].AsInt()) {
			best[k] = r
		}
	}
	out := make([]bool, log.NumRows())
	for _, r := range best {
		out[r] = true
	}
	return out
}

// WithLog returns a shallow copy of db in which the Log table is replaced by
// log (renamed to "Log" if needed). Event tables and the value dictionary
// are shared, so cached indexes built on them — Value and coded alike —
// remain valid across experiments.
func WithLog(db *relation.Database, log *relation.Table) *relation.Database {
	out := db.Derive()
	for _, name := range db.TableNames() {
		if name == pathmodel.LogTable {
			continue
		}
		out.AddTable(db.Table(name))
	}
	if log.Name() != pathmodel.LogTable {
		log = renamed(log, pathmodel.LogTable)
	}
	out.AddTable(log)
	return out
}

func renamed(t *relation.Table, name string) *relation.Table {
	out := relation.NewTable(name, t.Columns()...)
	for r := 0; r < t.NumRows(); r++ {
		out.Append(t.Row(r)...)
	}
	return out
}

// Combine concatenates two logs into one table named "Log" and returns the
// combined table plus a boolean per row marking whether it came from the
// first (real) log. Used by the precision/recall experiments of §5.3.2.
func Combine(real, fake *relation.Table) (*relation.Table, []bool) {
	out := NewLogTable(pathmodel.LogTable)
	isReal := make([]bool, 0, real.NumRows()+fake.NumRows())
	for r := 0; r < real.NumRows(); r++ {
		out.Append(real.Row(r)...)
		isReal = append(isReal, true)
	}
	for r := 0; r < fake.NumRows(); r++ {
		out.Append(fake.Row(r)...)
		isReal = append(isReal, false)
	}
	return out, isReal
}

// UserPatientPairs returns the number of distinct (user, patient) pairs in
// the log, used to report the user-patient density statistic of §5.2.
func UserPatientPairs(log *relation.Table) int {
	type pair struct{ u, p relation.Value }
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	set := make(map[pair]struct{})
	for r := 0; r < log.NumRows(); r++ {
		row := log.Row(r)
		set[pair{row[ui], row[pi]}] = struct{}{}
	}
	return len(set)
}
