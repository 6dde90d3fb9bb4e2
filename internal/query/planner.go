package query

import (
	"slices"
	"sync"
	"time"

	"repro/internal/relation"
)

// This file is the compile-time planner: the stage between compile (which
// lowers a path into the declared-order op chain) and the plan cache (which
// publishes the result to every cursor). The paper's prototype evaluates
// each explanation path's hops in exactly the order the path declares them;
// hop order and hop width, however, dominate how much of the pair lists an
// evaluation walks. Following the statistics-free greedy join ordering line
// of work, the planner restructures the chain before any tuples flow, using
// only cardinality signals the engine already has for free — the coded
// DISTINCT pair projections themselves (their key counts are the tables'
// NumDistinct values, their totals the distinct-pair counts). No statistics
// are collected or maintained. Every rewrite runs on code arrays: boundary
// sets are bitsets, composition de-duplicates with a dense marker and sorts
// with slices.Sort, and inversion sorts the swapped pairs into a new CSR.
//
// Three rewrites are applied, in order:
//
//  1. Backward-feasible pruning. A backward pass computes, at every op
//     boundary, the set of codes that can still complete the chain, and
//     every opMap / opBridge CSR that loses pairs is replaced by a private
//     copy restricted to them. This pushes the trailing opExists
//     filter of an open plan backward through every expansion (the
//     "boundedness before expansion" rewrite) and eliminates dead-end
//     branches of closed plans that no subsequent hop can extend.
//  2. Exists absorption. Once the op preceding an open plan's trailing
//     opExists has been pruned against the exists set, the opExists
//     passes everything that reaches it and is dropped.
//  3. Greedy hop contraction. Adjacent pairs ops are relations under
//     composition, and composition is associative, so any contraction
//     order yields the same start-to-end relation. The planner repeatedly
//     composes the adjacent pair with the smallest estimated composed size
//     (the classic independence estimate: |a| x avg fanout of b) while the
//     estimate — and an exact size-only pre-scan of the intermediate work —
//     stays under a budget that is a small multiple of the pairs being
//     replaced. Short selective chains typically collapse to a single map,
//     making evaluation one list probe instead of a walk; dense closures
//     that would inflate manyfold are left alone.
//
// Soundness: pruning only ever consults the plan's dependency tables (the
// pair CSRs and the opExists set), never the audited log's User column.
// cachedPlan.deps deliberately excludes the audited log so that plans
// survive pure log appends (the basis of incremental auditing); a plan
// pruned against log values would go stale on append without being
// invalidated. The boundary before opClose therefore stays unconstrained.
//
// The declared-order chain remains available as a differential oracle:
// SetPlannerEnabled(false) makes Prepare publish compile's output verbatim,
// and the index-free SupportScan is a second, plan-free oracle. The
// differential tests pin planned output to both.

// PlanInfo records the planner's decisions for one compiled plan. It is
// stored on the plan-cache entry and exposed through Prepared.PlanInfo so
// tests and tools can see what the planner did; the engine-wide aggregates
// are in PlanCacheStats.
type PlanInfo struct {
	// Planned reports whether the planner ran on this plan. It is false
	// when the planner is disabled (the declared-order oracle).
	Planned bool

	// HopsDeclared and HopsPlanned count the plan's ops before and after
	// planning; contraction and exists absorption shrink the chain.
	HopsDeclared, HopsPlanned int

	// PairsDeclared and PairsPlanned total the (from, to) pairs resident
	// across the plan's ops before and after planning, and PairsPruned
	// counts the pairs dropped by backward-feasible pruning alone
	// (contraction changes totals too, so the two are reported apart).
	PairsDeclared, PairsPlanned, PairsPruned int

	// Contractions counts greedy hop compositions applied.
	Contractions int

	// ExistsAbsorbed reports that the open plan's trailing opExists was
	// folded into the pruned predecessor and dropped.
	ExistsAbsorbed bool

	// BoundaryStart and BoundaryEnd are the boundary-set sizes the side
	// choice compares on a closed chain of pairs ops: the distinct start
	// values surviving backward pruning and the distinct values reaching
	// the close boundary. Both are zero when the plan's shape is not
	// eligible (open plans, bare-close plans).
	BoundaryStart, BoundaryEnd int

	// EndSide reports that the planner chose end-side propagation: the end
	// boundary is clearly smaller, so evaluation walks the inverted chain
	// from the row's end value instead of fanning out from its start value.
	EndSide bool

	// PlanNanos is the wall time the planner spent on this plan.
	PlanNanos int64
}

// SetPlannerEnabled toggles the planner stage for plans compiled after the
// call (the default is enabled) and drops the plan cache, so every cached
// chain is re-prepared under the new setting. Disabling the planner makes
// Prepare publish the declared-order chain exactly as compile produced it —
// the differential oracle the planner tests evaluate against. The setting
// is engine-wide: every Clone shares it.
func (ev *Evaluator) SetPlannerEnabled(on bool) {
	ev.engine.plannerOff.Store(!on)
	ev.InvalidatePlans()
}

// PlannerEnabled reports whether the planner stage runs on newly compiled
// plans.
func (ev *Evaluator) PlannerEnabled() bool { return !ev.engine.plannerOff.Load() }

// planPlan runs the planner on a freshly compiled plan and charges the
// decision counters to the engine. It never mutates pl's CSRs — compile
// shares them with the tables' immutable index caches — and the returned
// plan answers every per-row question exactly as pl does.
func (ev *Evaluator) planPlan(pl plan) plan {
	start := time.Now()
	info := PlanInfo{
		Planned:       true,
		HopsDeclared:  len(pl.ops),
		PairsDeclared: totalPlanPairs(pl.ops),
	}
	ops := prunePairs(pl.ops, &info)
	ops = contractHops(ops, ev.dict.Len(), &info)
	var rev []op
	if pl.closed {
		rev = chooseEndSide(ops, &info)
	}
	info.HopsPlanned = len(ops)
	info.PairsPlanned = totalPlanPairs(ops)
	info.PlanNanos = time.Since(start).Nanoseconds()

	eng := ev.engine
	eng.plansPlanned.Add(1)
	eng.planContractions.Add(int64(info.Contractions))
	eng.planPairsPruned.Add(int64(info.PairsPruned))
	if info.EndSide {
		eng.planEndSide.Add(1)
	}
	eng.planNanos.Add(info.PlanNanos)
	return plan{ops: ops, rev: rev, closed: pl.closed, info: info}
}

// isPairsOp reports whether o carries a pairs CSR (opMap or opBridge) — the
// op forms pruning rewrites and contraction composes.
func isPairsOp(o op) bool { return o.kind == opMap || o.kind == opBridge }

// totalPlanPairs totals the (from, to) pairs resident across ops.
func totalPlanPairs(ops []op) int {
	n := 0
	for _, o := range ops {
		if isPairsOp(o) {
			n += len(o.pairs.Targets)
		}
	}
	return n
}

// keySet returns the set of sources of c that have targets.
func keySet(c *relation.CSR) relation.CodeSet {
	s := make(relation.CodeSet, (int(c.Base)+c.Slots())/64+1)
	for i := 0; i < c.Slots(); i++ {
		if c.Offsets[i+1] > c.Offsets[i] {
			s.Add(c.Base + uint32(i))
		}
	}
	return s
}

// csrBuilder assembles a CSR from sources added in ascending code order;
// sources without targets are skipped.
type csrBuilder struct{ c relation.CSR }

func (b *csrBuilder) add(v uint32, targets []uint32) {
	if len(targets) == 0 {
		return
	}
	if b.c.Offsets == nil {
		b.c.Base = v
		b.c.Offsets = []uint32{0}
	}
	for slot := int(v - b.c.Base); len(b.c.Offsets) < slot+1; {
		b.c.Offsets = append(b.c.Offsets, uint32(len(b.c.Targets)))
	}
	b.c.Targets = append(b.c.Targets, targets...)
	b.c.Offsets = append(b.c.Offsets, uint32(len(b.c.Targets)))
	b.c.Keys++
}

func (b *csrBuilder) csr() *relation.CSR { return &b.c }

// prunePairs walks the chain backward computing, at each op boundary, the
// set of codes that can still complete the chain, and restricts each pairs
// CSR to them. The boundary before opClose is deliberately left
// unconstrained (see the file comment: the audited log is not a plan
// dependency). An op that loses nothing keeps its table's shared CSR; a
// pruned op gets a private one, so the tables' caches are never touched.
func prunePairs(ops []op, info *PlanInfo) []op {
	out := make([]op, len(ops))
	copy(out, ops)

	var feasible relation.CodeSet
	constrained := false
	var kept []uint32
	for i := len(out) - 1; i >= 0; i-- {
		o := out[i]
		switch o.kind {
		case opClose:
			constrained = false
		case opExists:
			feasible, constrained = o.exists, true
		case opMap, opBridge:
			if !constrained {
				feasible, constrained = keySet(o.pairs), true
				continue
			}
			var b csrBuilder
			dropped := 0
			for j := 0; j < o.pairs.Slots(); j++ {
				kept = kept[:0]
				v := o.pairs.Base + uint32(j)
				for _, w := range o.pairs.Row(v) {
					if feasible.Has(w) {
						kept = append(kept, w)
					}
				}
				dropped += len(o.pairs.Row(v)) - len(kept)
				b.add(v, kept)
			}
			info.PairsPruned += dropped
			if dropped > 0 {
				out[i].pairs = b.csr()
			}
			feasible = keySet(out[i].pairs)
		}
	}

	// Exists absorption: the backward pass above restricted the op before a
	// trailing opExists to values present in the exists set, so the filter
	// now passes everything that reaches it.
	if n := len(out); n >= 2 && out[n-1].kind == opExists && isPairsOp(out[n-2]) {
		out = out[:n-1]
		info.ExistsAbsorbed = true
	}
	return out
}

// chooseEndSide decides, for a closed chain of pairs ops, which side
// evaluation should propagate from. Backward pruning already restricted the
// first op's sources to the feasible starts, so the start boundary's size is
// free; the end boundary is the distinct codes the last hop can emit. A
// closed-plan evaluation asks one (start, end) question per log row, and the
// work of a first-witness search is governed by the fanout on the side it
// expands — so when the end boundary is clearly smaller (strictly less than
// half the start boundary), the planner inverts each pairs CSR and publishes
// the reversed chain for evaluation to walk from the row's end value.
// Inversion is exact — (v, w) holds iff (w, v) holds in the inverse — so the
// explained row set is identical by symmetry, which the differential tests
// pin against declared order and SupportScan. Plans containing non-pairs
// interior ops are left alone.
func chooseEndSide(ops []op, info *PlanInfo) []op {
	n := len(ops)
	if n < 2 || ops[n-1].kind != opClose {
		return nil
	}
	for _, o := range ops[:n-1] {
		if !isPairsOp(o) {
			return nil
		}
	}
	var ends relation.CodeSet
	for _, w := range ops[n-2].pairs.Targets {
		ends.Add(w)
	}
	info.BoundaryStart, info.BoundaryEnd = ops[0].pairs.Keys, ends.Count()
	if info.BoundaryEnd == 0 || 2*info.BoundaryEnd > info.BoundaryStart {
		return nil
	}
	info.EndSide = true
	rev := make([]op, 0, n)
	for i := n - 2; i >= 0; i-- {
		rev = append(rev, op{kind: opMap, table: ops[i].table, pairs: invertPairs(ops[i].pairs)})
	}
	return append(rev, op{kind: opClose})
}

// invertPairs returns the inverse relation of c: every (v, w) pair as
// (w, v).
func invertPairs(c *relation.CSR) *relation.CSR {
	pairs := make([]uint64, 0, len(c.Targets))
	for j := 0; j < c.Slots(); j++ {
		v := c.Base + uint32(j)
		for _, w := range c.Row(v) {
			pairs = append(pairs, uint64(w)<<32|uint64(v))
		}
	}
	return relation.NewCSR(pairs)
}

// contractionBudget bounds one candidate composition a ; b: a small
// multiple of the pairs resident in the two hops being replaced, floored so
// tiny plans always contract. The budget is deliberately relative to the
// hops themselves, not to the audited log — a contraction is profitable
// when the composed CSR costs about what the hops it replaces cost, and a
// composition that inflates its inputs manyfold (dense self-join closures
// like collaborative groups) loses more in materialization and list-scan
// width than it saves in hop count, no matter how large the log is.
func contractionBudget(a, b *relation.CSR) float64 {
	m := len(a.Targets) + len(b.Targets)
	if m < 512 {
		m = 512
	}
	return float64(8 * m)
}

// estComposed is the independence estimate of |a compose b|: every pair of
// a fans out through b's average fanout. It uses only the CSRs' own
// cardinalities — no statistics are kept.
func estComposed(a, b *relation.CSR) float64 {
	if b.Keys == 0 || a.Keys == 0 {
		return 0
	}
	fanout := float64(len(b.Targets)) / float64(b.Keys)
	return float64(len(a.Targets)) * fanout
}

// contractHops greedily composes adjacent pairs ops, smallest estimated
// result first, while the estimate stays under the budget. Composition is
// associative, so the greedy order changes evaluation cost only, never the
// start-to-end relation; terminal opExists / opClose ops are never touched.
//
// The independence estimate picks which pair to attempt, but it can
// undershoot badly when the right CSR's lists overlap heavily (many left
// values fanning into the same dense groups): the composition then touches
// far more intermediate pairs than it keeps. So before materializing, the
// chosen pair's exact intermediate work is computed with a size-only
// pre-scan (composeWork) and checked against its budget — a doomed
// composition is rejected for the cost of scanning the left CSR's lists,
// and its position is blocked from further attempts. dictLen sizes the
// dense marker composition de-duplicates with.
func contractHops(ops []op, dictLen int, info *PlanInfo) []op {
	blocked := make(map[int]bool) // positions whose composition blew their budget
	var mark *marker
	defer func() {
		if mark != nil {
			markerPool.Put(mark)
		}
	}()
	for {
		best, bestEst := -1, 0.0
		for i := 0; i+1 < len(ops); i++ {
			if blocked[i] || !isPairsOp(ops[i]) || !isPairsOp(ops[i+1]) {
				continue
			}
			if est := estComposed(ops[i].pairs, ops[i+1].pairs); best == -1 || est < bestEst {
				best, bestEst = i, est
			}
		}
		if best == -1 {
			return ops
		}
		budget := contractionBudget(ops[best].pairs, ops[best+1].pairs)
		if bestEst > budget ||
			float64(composeWork(ops[best].pairs, ops[best+1].pairs)) > budget {
			blocked[best] = true
			continue
		}
		if mark == nil {
			mark = getMarker(dictLen)
		}
		ops[best] = op{
			kind:  opMap,
			table: ops[best].table + "*" + ops[best+1].table,
			pairs: composePairs(ops[best].pairs, ops[best+1].pairs, mark),
		}
		ops = append(ops[:best+1], ops[best+2:]...)
		info.Contractions++
		clear(blocked) // positions shifted; re-evaluate every pair
	}
}

// composeWork returns the exact number of intermediate (v, w, x) pairs the
// composition a ; b touches: Σ |b[w]| over every (v, w) pair of a. It uses
// only list-length lookups, never building anything, so it is cheap even
// when the answer is enormous — the admission check that keeps a bad
// independence estimate from turning into a planning-time blowup.
func composeWork(a, b *relation.CSR) int {
	work := 0
	for _, w := range a.Targets {
		work += len(b.Row(w))
	}
	return work
}

// composePairs materializes the relational composition a ; b as a fresh CSR
// with sorted, de-duplicated lists — the same shape the tables' coded pair
// indexes have, so a contracted hop is indistinguishable from a declared
// one downstream. mark de-duplicates each source's list.
func composePairs(a, b *relation.CSR, mark *marker) *relation.CSR {
	var out csrBuilder
	var xs []uint32
	for j := 0; j < a.Slots(); j++ {
		v := a.Base + uint32(j)
		mark.reset()
		xs = xs[:0]
		for _, w := range a.Row(v) {
			for _, x := range b.Row(w) {
				if mark.add(x) {
					xs = append(xs, x)
				}
			}
		}
		slices.Sort(xs)
		out.add(v, xs)
	}
	return out.csr()
}

// marker is a dense set over dictionary codes that empties in O(1): x is in
// the set iff seen[x] holds the current stamp. Markers are pooled, so
// planning does not allocate one dictionary-sized array per plan.
type marker struct {
	seen  []uint32
	stamp uint32
}

var markerPool = sync.Pool{New: func() any { return new(marker) }}

// getMarker returns a pooled marker covering codes below dictLen.
func getMarker(dictLen int) *marker {
	m := markerPool.Get().(*marker)
	if len(m.seen) < dictLen {
		m.seen, m.stamp = make([]uint32, dictLen), 0
	}
	return m
}

// reset empties the set.
func (m *marker) reset() {
	m.stamp++
	if m.stamp == 0 { // wrapped: old stamps could collide
		clear(m.seen)
		m.stamp = 1
	}
}

// add inserts x and reports whether it was absent.
func (m *marker) add(x uint32) bool {
	if m.seen[x] == m.stamp {
		return false
	}
	m.seen[x] = m.stamp
	return true
}
