package query

import (
	"reflect"
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// plannerDB builds a tiny database whose join structure exercises every
// planner rewrite: A(P, D) fans patients out to doctors, the bridge M(F, T)
// translates doctors but deliberately lacks mappings for some of them
// (dead ends for pruning), and B(U) holds the existence set an open path
// terminates in.
func plannerDB() *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable(pathmodel.LogTable,
		pathmodel.LogIDColumn, pathmodel.LogDateColumn,
		pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	for i, pu := range [][2]int64{{100, 1}, {200, 2}, {300, 3}, {100, 2}, {999, 1}} {
		log.Append(relation.Int(int64(i)), relation.Int(1),
			relation.Int(pu[0]), relation.Int(pu[1]))
	}
	db.AddTable(log)

	a := relation.NewTable("A", "P", "D")
	for _, pd := range [][2]int64{{1, 10}, {2, 20}, {3, 30}, {1, 30}} {
		a.Append(relation.Int(pd[0]), relation.Int(pd[1]))
	}
	db.AddTable(a)

	m := relation.NewTable("M", "F", "T")
	for _, ft := range [][2]int64{{10, 100}, {20, 200}, {30, 300}} {
		m.Append(relation.Int(ft[0]), relation.Int(ft[1]))
	}
	db.AddTable(m)

	b := relation.NewTable("B", "U")
	b.Append(relation.Int(100))
	db.AddTable(b)
	return db
}

func plannerAttr(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }

// plannerOpenPath is Start -> A.P, A.D -> B.U via M: compiled declared
// order is [opMap A(P->D), opBridge M(F->T), opExists B(U)].
func plannerOpenPath(t *testing.T) pathmodel.Path {
	t.Helper()
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	p, ok := pathmodel.Start(schemagraph.Edge{
		From: pathmodel.StartAttr(), To: plannerAttr("A", "P"), Kind: schemagraph.KeyFK})
	if !ok {
		t.Fatal("start edge rejected")
	}
	p, ok = p.Append(schemagraph.Edge{
		From: plannerAttr("A", "D"), To: plannerAttr("B", "U"),
		Kind: schemagraph.KeyFK, Via: bridge})
	if !ok {
		t.Fatal("extend edge rejected")
	}
	return p
}

// plannerClosedPath is Start -> A.P, A.D -> End via M: compiled declared
// order is [opMap A(P->D), opBridge M(F->T), opClose].
func plannerClosedPath(t *testing.T) pathmodel.Path {
	t.Helper()
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	p, ok := pathmodel.Start(schemagraph.Edge{
		From: pathmodel.StartAttr(), To: plannerAttr("A", "P"), Kind: schemagraph.KeyFK})
	if !ok {
		t.Fatal("start edge rejected")
	}
	p, ok = p.Append(schemagraph.Edge{
		From: plannerAttr("A", "D"), To: pathmodel.EndAttr(),
		Kind: schemagraph.KeyFK, Via: bridge})
	if !ok {
		t.Fatal("close edge rejected")
	}
	return p
}

// TestPlannerRewritesOpenPlan pins the planner's rewrites on the open
// chain: the trailing opExists is pushed backward (pruning both hops down
// to the values that can reach B), absorbed, and the two surviving pairs
// ops are greedily contracted into one — while the set of start codes that
// complete the chain stays identical to the declared-order chain's.
func TestPlannerRewritesOpenPlan(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	declared := ev.compile(plannerOpenPath(t))
	planned := ev.planPlan(declared)

	info := planned.info
	if !info.Planned {
		t.Fatal("PlanInfo.Planned = false")
	}
	if info.HopsDeclared != 3 || info.HopsPlanned != 1 {
		t.Errorf("hops = %d -> %d, want 3 -> 1", info.HopsDeclared, info.HopsPlanned)
	}
	if !info.ExistsAbsorbed {
		t.Error("trailing opExists not absorbed")
	}
	if info.Contractions != 1 {
		t.Errorf("contractions = %d, want 1", info.Contractions)
	}
	// Only D=10 maps to the existing user 100: pruning drops A's pairs
	// (2,20), (3,30), (1,30) and M's (20,200), (30,300).
	if info.PairsPruned != 5 {
		t.Errorf("pairs pruned = %d, want 5", info.PairsPruned)
	}
	got, want := feasibleCodes(ev, planned), feasibleCodes(ev, declared)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("feasible starts differ: planned %v, declared %v", got, want)
	}
	if one := mustCode(t, ev, relation.Int(1)); !reflect.DeepEqual(got, []uint32{one}) {
		t.Errorf("feasible starts = %v, want {code of 1} = {%d}", got, one)
	}
}

// walkPlan answers one per-row question directly on pl with the engine's
// walker: whether start completes an open plan, or reaches end at a closed
// plan's close.
func walkPlan(ev *Evaluator, pl plan, start, end uint32) bool {
	ops, swap := pl.execOps()
	if swap {
		start, end = end, start
	}
	s := startWalk(ops, pl.closed, ev.dict.Len()+1)
	defer s.release()
	s.w.end = end
	return s.w.reaches(0, start)
}

// feasibleCodes lists the start codes (every dictionary code plus one past
// the end) that complete the open plan pl.
func feasibleCodes(ev *Evaluator, pl plan) []uint32 {
	var out []uint32
	for c := uint32(0); c <= uint32(ev.dict.Len()); c++ {
		if walkPlan(ev, pl, c, 0) {
			out = append(out, c)
		}
	}
	return out
}

func mustCode(t *testing.T, ev *Evaluator, v relation.Value) uint32 {
	t.Helper()
	c, ok := ev.dict.Code(v)
	if !ok {
		t.Fatalf("value %v not in the dictionary", v)
	}
	return c
}

// TestPlannerRewritesClosedPlan pins the closed chain: the boundary before
// opClose stays unconstrained (the audited log is not a plan dependency, so
// pruning must never consult its User values), the two hops contract, and
// the planned and declared chains answer every (start, end) question
// identically — for every code in the dictionary and one past it.
func TestPlannerRewritesClosedPlan(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	declared := ev.compile(plannerClosedPath(t))
	planned := ev.planPlan(declared)

	if !planned.closed {
		t.Fatal("planned plan lost closed state")
	}
	info := planned.info
	if info.HopsDeclared != 3 || info.HopsPlanned != 2 {
		t.Errorf("hops = %d -> %d, want 3 -> 2 (composed map + opClose)", info.HopsDeclared, info.HopsPlanned)
	}
	if info.Contractions != 1 {
		t.Errorf("contractions = %d, want 1", info.Contractions)
	}
	// Every doctor has a bridge mapping, so nothing is prunable — and the
	// final boundary must not have been constrained by log users (user 999
	// appears in the log but in no table).
	if info.PairsPruned != 0 {
		t.Errorf("pairs pruned = %d, want 0 on a fully-connected closed chain", info.PairsPruned)
	}
	n := uint32(ev.dict.Len())
	for start := uint32(0); start <= n; start++ {
		for end := uint32(0); end <= n; end++ {
			if got, want := walkPlan(ev, planned, start, end), walkPlan(ev, declared, start, end); got != want {
				t.Errorf("(%d, %d): planned %v, declared %v", start, end, got, want)
			}
		}
	}
	if !walkPlan(ev, planned, mustCode(t, ev, relation.Int(1)), mustCode(t, ev, relation.Int(300))) {
		t.Error("planned chain lost patient 1 -> doctor 30 -> user 300")
	}
}

// TestPlannerDisabledKeepsDeclaredOrder: the oracle flag makes Prepare
// publish compile's output verbatim, with a zero PlanInfo.
func TestPlannerDisabledKeepsDeclaredOrder(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	ev.SetPlannerEnabled(false)
	if ev.PlannerEnabled() {
		t.Fatal("PlannerEnabled after SetPlannerEnabled(false)")
	}
	pp := ev.Prepare(plannerOpenPath(t))
	if info := pp.PlanInfo(); info != (PlanInfo{}) {
		t.Errorf("declared-order plan has nonzero PlanInfo %+v", info)
	}
	if got := len(pp.ent.pl.ops); got != 3 {
		t.Errorf("declared-order plan has %d ops, want 3", got)
	}
	if st := ev.PlanCacheStats(); st.PlansPlanned != 0 {
		t.Errorf("PlansPlanned = %d with planner disabled", st.PlansPlanned)
	}

	ev.SetPlannerEnabled(true)
	pp = ev.Prepare(plannerOpenPath(t))
	if !pp.PlanInfo().Planned {
		t.Error("re-enabling the planner did not replan the cached path")
	}
	st := ev.PlanCacheStats()
	if st.PlansPlanned != 1 || st.PlanContractions != 1 || st.PlanPairsPruned != 5 {
		t.Errorf("stats = %+v, want 1 plan, 1 contraction, 5 pairs pruned", st)
	}
}
