// Package query executes explanation paths against a relation.Database. It
// stands in for the PostgreSQL layer of the paper's prototype (§5.1),
// providing the two primitives mining needs:
//
//   - Support: the exact COUNT(DISTINCT Log.Lid) of the path's
//     support-counting query (§3.2), evaluated with per-table DISTINCT
//     projections (the "Reducing Result Multiplicity" optimization) and
//     semi-join style value propagation instead of full joins;
//   - EstimateSupport: a cheap System-R style cardinality estimate standing
//     in for "asking the database optimizer for the number of log ids it
//     expects" (the "Skipping Non-Selective Paths" optimization).
//
// It also enumerates explanation instances (the bound tuple chains behind an
// individual access) so that templates can be rendered in natural language.
//
// Evaluation is organized around prepared plans: Evaluator.Prepare compiles
// a path once into a *Prepared handle whose Support, ExplainedRows /
// ExplainedRange, ConnectedRows / ConnectedRange, and Instances methods
// evaluate it without recompiling. The legacy one-shot methods (Support,
// ExplainedRows, ConnectedRows) are conveniences that prepare and evaluate
// in one call — because compiled plans are cached, even they stop paying
// compilation cost after the first evaluation of a condition set.
//
// Plans run on dense value codes, not on relation.Value: every database
// carries one append-only dictionary (relation.Database.Dict), a compiled
// plan is a chain of the tables' cached CSR pair lists and exists bitsets
// over its codes, the planner rewrites those arrays (planner.go), and one
// lazy first-witness evaluator walks them with pooled dense memos
// (lazy.go). Values come back only where the caller sees them: instance
// enumeration, decorated search and the index-free SupportScan oracle work
// on the tables' rows directly.
//
// # Concurrency contract
//
// An Evaluator is split into two parts. The engine — the database binding,
// the audited log, the coded start/end column projections, and the shared
// plan cache — is created by NewEvaluatorWithLog and shared by every
// evaluator cloned from it. The projections only ever grow by appended rows;
// the plan cache is guarded by an RWMutex (and per-entry sync.Once for
// compilation), so any number of cursors may Prepare and evaluate
// concurrently, reusing each other's compiled plans. The cache is
// keyed by the path's canonical condition key and is dropped wholesale when
// relation.Database.Version reports a mutation (AddTable, or Append on any
// registered table).
//
// The Evaluator itself is a cheap cursor over that engine: it carries only
// the per-caller statistics counters, so Clone costs one small allocation. A
// single cursor is NOT safe for concurrent use (its counters are plain
// ints). The supported concurrent pattern is one cursor per goroutine: each
// worker clones the evaluator, prepares (cheaply, through the shared cache)
// the paths it needs, and evaluates — typically a disjoint log-row range via
// ExplainedRange/ConnectedRange. The only additional requirement is the
// table contract: no table reachable from the database may be Appended while
// queries run (see relation.Table); mutations between query phases are
// handled by the version-based cache invalidation.
package query

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// engine is the shareable part of an Evaluator: the database, its value
// dictionary, the audited log, the coded log column projections, and the
// compiled-plan cache. The projections are extended only under projMu; the
// plan cache is internally synchronized, so any number of cursors may use
// the engine concurrently.
type engine struct {
	db  *relation.Database
	log *relation.Table

	// dict is the database's value dictionary (relation.Database.Dict).
	// Plans, projections and evaluation memos all speak its codes; the
	// shard engines of one database share it.
	dict *relation.Dict

	// logPatientIdx and logUserIdx are the audited log's Patient and User
	// column positions, immutable after construction.
	logPatientIdx int
	logUserIdx    int

	// proj is the per-row start/end column snapshot as dictionary codes (one
	// entry per audited row), published atomically so it can be *extended*
	// when the log grows: projections reads the log's AppendVersion and, on
	// a mismatch, encodes only the new rows and swaps in a fresh header
	// under projMu. Readers holding an older snapshot see a clean prefix —
	// appended rows only ever land beyond their length — which is what
	// makes query evaluation append-aware without a rebuild. projVersion is
	// the AppendVersion the current snapshot covers; it is stored after proj
	// so a reader that observes the new version also observes the new
	// snapshot.
	proj        atomic.Pointer[logProj]
	projVersion atomic.Uint64
	projMu      sync.Mutex

	// planMu guards plans and planVersion. plans caches compiled plans by
	// canonical condition key; planVersion is the database *schema* version
	// (relation.Database.SchemaVersion) the cache was built against, and a
	// mismatch drops the whole cache (see planEntry) — AddTable may have
	// swapped any table wholesale. Pure appends do not touch the schema
	// version; they are detected per entry through the compiled plan's table
	// dependencies (cachedPlan.deps), so appending log rows leaves every
	// plan that does not read the appended table intact. Hit/miss counters
	// are engine-wide atomics shared by all cursors.
	planMu      sync.RWMutex
	plans       map[string]*cachedPlan
	planVersion uint64

	// reg is the engine's metrics registry. Every counter below is a named
	// metric in it, resolved once at construction so the hot paths pay one
	// atomic add, never a registry lookup. The registry is per-engine — each
	// federation shard engine carries its own, keeping per-shard snapshots
	// attributable — and PlanCacheStats remains the compatibility view over
	// it.
	reg *obs.Registry

	planHits   *obs.Counter // query.plan.hits
	planMisses *obs.Counter // query.plan.misses

	// compileNanos is the query.plan.compile_nanos histogram: wall time of
	// each plan compilation including the planner stage, observed only when
	// obs.Enabled (the gate for anything that reads the clock).
	compileNanos *obs.Histogram

	// dictValues is the query.dict.values gauge (values interned in the
	// dictionary, refreshed when plans compile and projections extend).
	// indexBuilds counts coded indexes (CSR pair lists and exists sets) this
	// engine's compilations built rather than found cached on their table
	// (query.index.builds); indexBuildNanos times those builds, observed
	// only when obs.Enabled.
	dictValues      *obs.Gauge
	indexBuilds     *obs.Counter
	indexBuildNanos *obs.Histogram

	// plannerOff disables the compile-time planner stage (see planner.go);
	// the zero value — planner on — is the default. Stored inverted so the
	// engine literal in NewEvaluatorWithLog needs no initialization.
	plannerOff atomic.Bool

	// execOn enables per-op execution statistics (rows in/out, postings,
	// memo hits — see exec.go). Exec stats default OFF: the zero value means
	// disabled, and SetExecStats(true) turns collection on. Disabled cost is
	// one atomic load per evaluation entry point plus a nil check per op
	// visit.
	execOn atomic.Bool

	// planEndSide counts closed plans for which the planner chose end-side
	// propagation (see planner.go); snapshotted by PlanCacheStats
	// (query.plan.end_side).
	planEndSide *obs.Counter

	// Planner decision aggregates across every plan the engine compiled:
	// plans run through the planner, greedy hop contractions applied, pairs
	// dropped by backward-feasible pruning, and total planning wall time.
	// Snapshotted by PlanCacheStats (query.plan.planned / .contractions /
	// .pairs_pruned / .nanos).
	plansPlanned     *obs.Counter
	planContractions *obs.Counter
	planPairsPruned  *obs.Counter
	planNanos        *obs.Counter
}

// initMetrics creates the engine's registry and resolves every named metric
// the hot paths charge.
func (eng *engine) initMetrics() {
	reg := obs.NewRegistry()
	eng.reg = reg
	eng.planHits = reg.Counter("query.plan.hits")
	eng.planMisses = reg.Counter("query.plan.misses")
	eng.compileNanos = reg.Histogram("query.plan.compile_nanos")
	eng.dictValues = reg.Gauge("query.dict.values")
	eng.indexBuilds = reg.Counter("query.index.builds")
	eng.indexBuildNanos = reg.Histogram("query.index.build_nanos")
	eng.planEndSide = reg.Counter("query.plan.end_side")
	eng.plansPlanned = reg.Counter("query.plan.planned")
	eng.planContractions = reg.Counter("query.plan.contractions")
	eng.planPairsPruned = reg.Counter("query.plan.pairs_pruned")
	eng.planNanos = reg.Counter("query.plan.nanos")
}

// syncDict interns every row appended to the database's tables since the
// last sync (so codes stay in table-row order) and refreshes the
// query.dict.values gauge.
func (eng *engine) syncDict() {
	eng.db.Dict()
	eng.dictValues.Set(int64(eng.dict.Len()))
}

// Evaluator executes paths against one database. It is a cheap per-caller
// cursor over a shared engine; see the package comment for the concurrency
// contract. An individual Evaluator is not safe for concurrent use — use
// Clone to give each goroutine its own cursor.
type Evaluator struct {
	*engine

	// stats counters for mining-performance experiments. Per-cursor: queries
	// run through a clone are counted on that clone only.
	queriesEvaluated int
	estimatesIssued  int

	// postingsScanned counts index postings and pair-list entries consumed
	// by plan evaluation and instance enumeration on this cursor — the
	// observable the early-termination tests pin: Instances(limit) and
	// existence checks must stop consuming after the first witness.
	postingsScanned int
}

// NewEvaluator creates an evaluator over db, which must contain a table
// named Log with Lid, Date, User, and Patient columns. The audited rows and
// the Log instances referenced by paths come from the same table.
func NewEvaluator(db *relation.Database) *Evaluator {
	return NewEvaluatorWithLog(db, db.MustTable(pathmodel.LogTable))
}

// NewEvaluatorWithLog creates an evaluator whose *audited* rows come from
// audited, while the Log instances referenced inside paths (self-joins such
// as the repeat-access template) resolve against db's Log table. This is how
// the predictive-power experiments (§5.3.4) classify day-7 test accesses
// against the historical days-1-6 log: a test access may only be "explained
// by a previous access" if its pair appears in the past log — it must not
// match itself in the test set.
func NewEvaluatorWithLog(db *relation.Database, audited *relation.Table) *Evaluator {
	log := audited
	eng := &engine{db: db, log: log, dict: db.Dict(), plans: make(map[string]*cachedPlan), planVersion: db.SchemaVersion()}
	eng.initMetrics()
	pi, ok := log.ColumnIndex(pathmodel.LogPatientColumn)
	if !ok {
		panic("query: Log table lacks Patient column")
	}
	ui, ok := log.ColumnIndex(pathmodel.LogUserColumn)
	if !ok {
		panic("query: Log table lacks User column")
	}
	eng.logPatientIdx, eng.logUserIdx = pi, ui
	n := log.NumRows()
	pr := &logProj{
		patients: make([]uint32, 0, n),
		users:    make([]uint32, 0, n),
	}
	appendProjRows(eng, pr, n)
	eng.proj.Store(pr)
	eng.projVersion.Store(log.AppendVersion())
	return &Evaluator{engine: eng}
}

// Metrics returns the engine's metrics registry — the observability surface
// behind PlanCacheStats, shared by every cursor cloned from this evaluator.
// Layers stacked on the engine (the auditor's mask cache) register their
// metrics here so one snapshot describes the whole engine.
func (ev *Evaluator) Metrics() *obs.Registry { return ev.engine.reg }

// logProj is one immutable-prefix snapshot of the audited log's start/end
// column projections as dictionary codes: patients[r] and users[r] for
// every row the snapshot covers. Snapshots are extended, never rewritten —
// see engine.proj.
type logProj struct {
	patients, users []uint32
}

// appendProjRows encodes log rows [len(pr.patients), n) into pr. The
// database's own rows are interned first, so a value the audited log shares
// with a table keeps that table's code.
func appendProjRows(eng *engine, pr *logProj, n int) {
	eng.db.Dict()
	from := len(pr.patients)
	pr.patients = eng.dict.EncodeColumn(pr.patients, eng.log, eng.logPatientIdx, from, n)
	pr.users = eng.dict.EncodeColumn(pr.users, eng.log, eng.logUserIdx, from, n)
	eng.dictValues.Set(int64(eng.dict.Len()))
}

// projections returns the engine's log-column snapshot, first extending it
// to cover rows appended to the audited log since the snapshot was built.
// The fast path is one atomic version compare; extension runs under projMu
// and encodes only the new suffix (an in-place append is safe for
// concurrent readers of the old header, whose length excludes the new
// slots), so every query entry point is append-aware at O(new rows) cost.
// Like all query evaluation, it must not race with the Append itself — the
// relation.Table contract already forbids interleaving appends with reads.
func (eng *engine) projections() *logProj {
	if eng.projVersion.Load() == eng.log.AppendVersion() {
		return eng.proj.Load()
	}
	eng.projMu.Lock()
	defer eng.projMu.Unlock()
	v := eng.log.AppendVersion()
	if eng.projVersion.Load() == v {
		return eng.proj.Load()
	}
	old := eng.proj.Load()
	next := &logProj{patients: old.patients, users: old.users}
	appendProjRows(eng, next, eng.log.NumRows())
	eng.proj.Store(next)
	eng.projVersion.Store(v)
	return next
}

// numRows returns the number of audited rows, extending the projections
// first so appended rows count.
func (eng *engine) numRows() int { return len(eng.projections().patients) }

// logValues returns the audited row's (patient, user) values — the Value
// form the index-free oracle and instance enumeration work on.
func (eng *engine) logValues(r int) (patient, user relation.Value) {
	row := eng.log.Row(r)
	return row[eng.logPatientIdx], row[eng.logUserIdx]
}

// Clone returns a new cursor over the same engine: same database,
// dictionary, log, and projections, but fresh statistics counters. The
// clone may be used concurrently with the receiver and with other clones;
// this is the primitive the batch auditing engine hands to each worker.
func (ev *Evaluator) Clone() *Evaluator {
	return &Evaluator{engine: ev.engine}
}

// Database returns the database the evaluator is bound to.
func (ev *Evaluator) Database() *relation.Database { return ev.db }

// Log returns the log table the evaluator is bound to.
func (ev *Evaluator) Log() *relation.Table { return ev.log }

// QueriesEvaluated returns the number of exact support evaluations performed.
func (ev *Evaluator) QueriesEvaluated() int { return ev.queriesEvaluated }

// EstimatesIssued returns the number of cardinality estimates issued.
func (ev *Evaluator) EstimatesIssued() int { return ev.estimatesIssued }

// PostingsScanned returns the number of index postings and pair-list
// entries this cursor's plan evaluations and instance enumerations have
// consumed. Like QueriesEvaluated it is per-cursor.
func (ev *Evaluator) PostingsScanned() int { return ev.postingsScanned }

// opKind distinguishes the step types of a compiled plan.
type opKind uint8

const (
	opBridge opKind = iota // translate values through a mapping table
	opMap                  // entry -> exit through one table instance
	opExists               // entry must exist in the final (open) instance
	opClose                // values are compared against Log.User per row
)

// op is one step of a compiled plan. Evaluation feeds dictionary codes
// through the ops in order.
type op struct {
	kind   opKind
	table  string
	pairs  *relation.CSR    // opBridge, opMap
	exists relation.CodeSet // opExists
}

type plan struct {
	ops    []op
	closed bool

	// rev is the end-side execution chain — the ops inverted pair-by-pair
	// and walked from the close boundary back to the start — built by the
	// planner for closed plans whose end boundary is clearly smaller than
	// their start boundary (see planner.go). It is nil when the start side
	// was kept.
	rev []op

	// info records the planner's decisions when the planner stage ran on
	// this plan (see planner.go); it is the zero value for declared-order
	// plans.
	info PlanInfo
}

// execOps returns the op chain evaluation walks and whether the (start,
// end) roles must be swapped before walking it — true when the planner
// chose the end-side chain.
func (pl plan) execOps() ([]op, bool) {
	if pl.rev != nil {
		return pl.rev, true
	}
	return pl.ops, false
}

// compile lowers a path into a plan over the tables' coded indexes. It
// panics on malformed paths because those indicate a bug in path
// construction, which tests cover directly.
func (ev *Evaluator) compile(p pathmodel.Path) plan {
	eng := ev.engine
	eng.syncDict()
	insts := p.Instances()
	conds := p.Conds()
	var pl plan
	for i, c := range conds {
		if c.Via != nil {
			bt := ev.db.MustTable(c.Via.Table)
			pl.ops = append(pl.ops, op{
				kind:  opBridge,
				table: c.Via.Table,
				pairs: eng.codedPairs(bt, c.Via.FromColumn, c.Via.ToColumn),
			})
		}
		if c.RightInst == 0 {
			if i != len(conds)-1 {
				panic("query: closing condition before end of path")
			}
			pl.ops = append(pl.ops, op{kind: opClose})
			pl.closed = true
			continue
		}
		in := insts[c.RightInst]
		t := ev.db.MustTable(in.Table)
		if in.Exit == "" {
			pl.ops = append(pl.ops, op{kind: opExists, table: in.Table, exists: eng.codedExists(t, in.Entry)})
		} else {
			pl.ops = append(pl.ops, op{kind: opMap, table: in.Table, pairs: eng.codedPairs(t, in.Entry, in.Exit)})
		}
	}
	if pl.closed != p.Closed() {
		panic("query: plan/path closed-state mismatch")
	}
	return pl
}

// codedPairs returns t's coded (from, to) pair index, charging a build to
// the engine's index metrics.
func (eng *engine) codedPairs(t *relation.Table, from, to string) *relation.CSR {
	t0, timed := eng.buildClock()
	c, built := t.CodedPairs(eng.dict, from, to)
	eng.countBuild(built, timed, t0)
	return c
}

// codedExists returns t's coded exists set for column, charging a build to
// the engine's index metrics.
func (eng *engine) codedExists(t *relation.Table, column string) relation.CodeSet {
	t0, timed := eng.buildClock()
	s, built := t.CodedExists(eng.dict, column)
	eng.countBuild(built, timed, t0)
	return s
}

// buildClock reads the clock only when observability is on.
func (eng *engine) buildClock() (time.Time, bool) {
	if !obs.Enabled() {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (eng *engine) countBuild(built, timed bool, t0 time.Time) {
	if !built {
		return
	}
	eng.indexBuilds.Add(1)
	if timed {
		eng.indexBuildNanos.Observe(time.Since(t0).Nanoseconds())
	}
}

// Support returns COUNT(DISTINCT Log.Lid) for the path's support query: for
// a closed path, the number of log entries (p, u) connected by some tuple
// chain; for an open path, the number of log entries whose patient can start
// a satisfiable chain. Log rows are assumed to carry distinct Lids (the
// generator guarantees it), so the count is over rows. It is the one-shot
// convenience for Prepare(p).Support(); the compiled plan is cached, so
// repeated calls do not recompile.
func (ev *Evaluator) Support(p pathmodel.Path) int {
	return ev.Prepare(p).Support()
}

// ExplainedRows returns, for a closed path, a boolean per log row indicating
// whether that access is explained by the path. It panics on open paths. It
// is the one-shot convenience for Prepare(p).ExplainedRows(); use the
// prepared handle's ExplainedRange to shard the evaluation across workers.
func (ev *Evaluator) ExplainedRows(p pathmodel.Path) []bool {
	if !p.Closed() {
		panic("query: ExplainedRows requires a closed path")
	}
	return ev.Prepare(p).ExplainedRows()
}

// EstimateSupport returns a cheap optimizer-style estimate of the support
// query's COUNT(DISTINCT Log.Lid). It applies the textbook equi-join
// selectivity 1/max(ndv(a), ndv(b)) hop by hop and clamps to the log size.
// Like a real optimizer it can err in both directions; the mining algorithm
// compensates with the constant c of §3.2.1.
func (ev *Evaluator) EstimateSupport(p pathmodel.Path) int {
	ev.estimatesIssued++
	insts := p.Instances()
	conds := p.Conds()

	rows := float64(ev.log.NumRows())
	ndvPrev := float64(ev.log.NumDistinct(p.StartColumn()))

	join := func(tbl *relation.Table, entry, exit string) {
		tRows := float64(tbl.NumRows())
		ndvEntry := float64(tbl.NumDistinct(entry))
		if ndvEntry == 0 || tRows == 0 {
			rows = 0
			return
		}
		rows = rows * tRows / maxf(ndvPrev, ndvEntry)
		if exit != "" {
			ndvPrev = float64(tbl.NumDistinct(exit))
		} else {
			ndvPrev = ndvEntry
		}
	}

	for _, c := range conds {
		if c.Via != nil {
			join(ev.db.MustTable(c.Via.Table), c.Via.FromColumn, c.Via.ToColumn)
		}
		if c.RightInst == 0 {
			ndvEnd := float64(ev.log.NumDistinct(c.RightCol))
			rows = rows / maxf(ndvPrev, maxf(ndvEnd, 1))
			continue
		}
		in := insts[c.RightInst]
		join(ev.db.MustTable(in.Table), in.Entry, in.Exit)
	}
	return clampEstimate(rows, ev.log.NumRows())
}

// clampEstimate converts a float row estimate to an int clamped to [0, n].
// The clamp happens in float space: a huge estimate (long non-selective join
// chains multiply quickly) would overflow int64 in the conversion and wrap
// to a negative count, which an int-space clamp would then zero out —
// exactly the wrong answer for the skip-non-selective decision.
func clampEstimate(rows float64, n int) int {
	if !(rows > 0) { // also catches NaN
		return 0
	}
	if rows > float64(n) {
		return n
	}
	return int(rows)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// InstanceBinding is one concrete explanation instance for a specific log
// row: the row chosen in each non-log table instance along the path, in
// path order.
type InstanceBinding struct {
	Rows []int
}

// Instances enumerates up to limit explanation instances of a closed path
// for the log row at index logRow. Each binding fixes one row per non-log
// instance such that all join conditions (including bridge translations)
// hold. The paper converts each instance to natural language and ranks
// explanations in ascending order of path length; rendering lives in the
// explain package.
//
// Enumeration is pull-based end to end: candidate values stream through
// relation.Table.PairValues and matching rows through Table.Postings, and
// the depth-first search unwinds as soon as limit bindings exist, so the
// number of postings consumed is bounded by the work to the limit-th
// witness, not by the hop fanout (PostingsScanned counts the consumption).
func (ev *Evaluator) Instances(p pathmodel.Path, logRow, limit int) []InstanceBinding {
	if !p.Closed() {
		panic("query: Instances requires a closed path")
	}
	if !p.Forward() {
		p = p.Reverse()
	}
	if limit <= 0 {
		limit = 1
	}
	insts := p.Instances()
	conds := p.Conds()
	patient, user := ev.logValues(logRow)

	var out []InstanceBinding
	rows := make([]int, 0, len(insts)-1)

	var dfs func(ci int, current relation.Value) bool
	dfs = func(ci int, current relation.Value) bool {
		if ci == len(conds) {
			out = append(out, InstanceBinding{Rows: append([]int(nil), rows...)})
			return len(out) >= limit
		}
		c := conds[ci]
		// Candidate values on the right-hand side after bridge translation,
		// streamed lazily: the singleton current value, or the bridge's
		// pair-value postings.
		candidates := func(yield func(relation.Value) bool) { yield(current) }
		if c.Via != nil {
			bt := ev.db.MustTable(c.Via.Table)
			bridged := bt.PairValues(c.Via.FromColumn, c.Via.ToColumn, current)
			candidates = func(yield func(relation.Value) bool) {
				for v := range bridged {
					ev.postingsScanned++
					if !yield(v) {
						return
					}
				}
			}
		}
		if c.RightInst == 0 {
			// Closing condition: some candidate must equal this row's user.
			matched := false
			for v := range candidates {
				if v == user {
					matched = true
					break
				}
			}
			if matched {
				return dfs(ci+1, user)
			}
			return false
		}
		in := insts[c.RightInst]
		t := ev.db.MustTable(in.Table)
		done := false
		for v := range candidates {
			for r := range t.Postings(in.Entry, v) {
				ev.postingsScanned++
				rows = append(rows, r)
				next := relation.Null()
				if in.Exit != "" {
					next = t.Get(r, in.Exit)
				}
				done = dfs(ci+1, next)
				rows = rows[:len(rows)-1]
				if done {
					break
				}
			}
			if done {
				break
			}
		}
		return done
	}
	dfs(0, patient)
	return out
}

// ConnectedRows returns, for an open path, a boolean per log row indicating
// whether the row's start value (its patient, for forward paths) can begin a
// satisfiable chain. This scores "event" indicators such as the paper's
// Figure 6 bars (the patient had an appointment with anyone). It panics on
// closed paths; use ExplainedRows for those.
func (ev *Evaluator) ConnectedRows(p pathmodel.Path) []bool {
	if p.Closed() {
		panic("query: ConnectedRows requires an open path")
	}
	return ev.Prepare(p).ConnectedRows()
}
