package query

import (
	"slices"
	"sync"
)

// This file is the engine's one evaluator: pull-based, first-witness
// execution of compiled plans over dictionary codes. Each per-row question —
// "does this row's end value lie in its start value's reach?" for closed
// plans, "can this row's start value complete the chain?" for open ones — is
// answered by a depth-first walk over the plan's CSR pair lists that stops at
// the first witness. Nothing is retained on the engine: all memoization is
// call-local and released when the evaluation returns.
//
// Memoization keeps evaluation from degrading on dense plans, and is dense:
//
//   - closed plans group the rows of a call by end code and memoize
//     (boundary, value) verdicts per group, so a start value shared by many
//     rows — and every intermediate value reached under the same end — is
//     walked once per end, not once per row. The memo is reset between
//     groups through the list of entries the group touched;
//   - open plans memoize (boundary, value) satisfiability for the whole
//     call, which bounds a whole-log ConnectedRange by the pairs resident in
//     the plan (each boundary value is expanded at most once) while touching
//     only values the audited log actually reaches.
//
// The memo is a flat byte array indexed by boundary * stride + code, where
// stride covers the dictionary's size. It comes from a free list and goes
// back to it zeroed (only touched entries are cleared), so a warm call costs
// what it walks, never what the dictionary holds: refreshing 20 appended
// rows touches a handful of entries however large the database is.
//
// The last pairs op before the close of a closed plan is not walked at all:
// its lists are sorted, so whether they contain the row's end value is one
// binary search, counted as one posting.
//
// Declared-order plans (SetPlannerEnabled(false)) and the index-free
// SupportScan are the oracles this evaluator is tested against.

// Memo verdicts; the zero value means not yet evaluated.
const (
	memoUnknown uint8 = iota
	memoFalse
	memoTrue
)

// walker is the state of one evaluation: the op chain (the planner's
// end-side chain when one was chosen), the memo, and the per-call counters
// flushed to the cursor and the plan's exec stats on return.
type walker struct {
	ops    []op
	closed bool
	// probe is the index of a closed plan's final pairs op, answered by
	// binary search for end instead of a walk (-1 if there is none).
	probe int
	end   uint32

	memo    []uint8
	stride  int
	touched []int

	scanned int
	exec    *execLocal // nil unless exec stats are enabled (see exec.go)
}

// evalScratch is the pooled call-local state: the walker with its memo and
// the arrays closed evaluation groups rows with. Between uses every memo
// byte and every groupOf entry is zero.
type evalScratch struct {
	w walker

	// groupOf maps an end code to 1 + its group index while rows are being
	// grouped; ends lists the group keys in first-appearance order,
	// groupStart the groups' offsets into order, which holds row numbers
	// grouped by end.
	groupOf    []int32
	ends       []uint32
	groupStart []int32
	order      []int32
}

// scratchFree holds evaluation state between calls. It is a plain free list
// rather than a sync.Pool so that a warm evaluation never allocates: a
// sync.Pool may drop its entries at any garbage collection.
var scratchFree struct {
	sync.Mutex
	list []*evalScratch
}

// maxFreeScratch bounds the free list; more concurrent evaluations than
// this allocate their own state and let it go.
const maxFreeScratch = 16

// startWalk returns pooled state set up to walk ops over a dictionary of
// dictLen codes; release returns it. Arrays grow with headroom, so a
// dictionary that grows by a few codes per append does not reallocate them
// on every call.
func startWalk(ops []op, closed bool, dictLen int) *evalScratch {
	scratchFree.Lock()
	var s *evalScratch
	if n := len(scratchFree.list); n > 0 {
		s, scratchFree.list = scratchFree.list[n-1], scratchFree.list[:n-1]
	}
	scratchFree.Unlock()
	if s == nil {
		s = new(evalScratch)
	}
	w := &s.w
	if dictLen > w.stride || len(ops)*w.stride > len(w.memo) {
		if dictLen > w.stride {
			w.stride = dictLen + dictLen/4
		}
		w.memo = make([]uint8, max(len(ops)*w.stride, len(w.memo)))
	}
	if dictLen > len(s.groupOf) {
		s.groupOf = make([]int32, w.stride)
	}
	w.ops, w.closed, w.probe = ops, closed, -1
	if n := len(ops); closed && n >= 2 && isPairsOp(ops[n-2]) {
		w.probe = n - 2
	}
	return s
}

// release clears the walk's memo and returns the state to the free list.
func (s *evalScratch) release() {
	s.w.resetMemo()
	s.w.ops, s.w.scanned, s.w.exec = nil, 0, nil
	scratchFree.Lock()
	if len(scratchFree.list) < maxFreeScratch {
		scratchFree.list = append(scratchFree.list, s)
	}
	scratchFree.Unlock()
}

// eval answers the prepared plan's per-row question for audited rows [lo,
// hi), storing each verdict in out[r-lo] when out is non-nil, and returns
// how many rows hold.
func (pp *Prepared) eval(lo, hi int, out []bool) int {
	eng := pp.ev.engine
	pl := &pp.ent.pl
	starts, ends := pp.orient()
	ops, swap := pl.execOps()
	if swap {
		starts, ends = ends, starts
	}
	s := startWalk(ops, pl.closed, eng.dict.Len())
	w := &s.w
	w.exec = newExecLocal(eng, pp.ent.exec)

	count := 0
	if !pl.closed {
		for r := lo; r < hi; r++ {
			ok := w.reaches(0, starts[r])
			if out != nil {
				out[r-lo] = ok
			}
			if ok {
				count++
			}
		}
		w.resetMemo()
	} else {
		s.groupByEnd(ends, lo, hi)
		for g, end := range s.ends {
			w.end = end
			for _, r := range s.order[s.groupStart[g]:s.groupStart[g+1]] {
				ok := w.reaches(0, starts[r])
				if out != nil {
					out[int(r)-lo] = ok
				}
				if ok {
					count++
				}
			}
			w.resetMemo()
		}
	}

	pp.ev.postingsScanned += w.scanned
	w.exec.flush()
	s.release()
	return count
}

// groupByEnd groups rows [lo, hi) by ends[r], keeping row order within a
// group: afterwards group g (key s.ends[g]) holds the rows
// s.order[s.groupStart[g]:s.groupStart[g+1]]. It runs in O(hi - lo) and
// leaves groupOf zeroed again.
func (s *evalScratch) groupByEnd(ends []uint32, lo, hi int) {
	s.ends, s.groupStart = s.ends[:0], s.groupStart[:0]
	for r := lo; r < hi; r++ {
		e := ends[r]
		if s.groupOf[e] == 0 {
			s.ends = append(s.ends, e)
			s.groupStart = append(s.groupStart, 0)
			s.groupOf[e] = int32(len(s.ends))
		}
		s.groupStart[s.groupOf[e]-1]++
	}
	// Counts to start offsets, with one trailing end offset.
	total := int32(0)
	for g, c := range s.groupStart {
		s.groupStart[g] = total
		total += c
	}
	s.groupStart = append(s.groupStart, total)
	s.order = slices.Grow(s.order[:0], hi-lo)[:hi-lo]
	for r := lo; r < hi; r++ {
		g := s.groupOf[ends[r]] - 1
		// groupStart[g] doubles as the fill cursor; it is restored below.
		s.order[s.groupStart[g]] = int32(r)
		s.groupStart[g]++
	}
	for g := len(s.ends) - 1; g >= 0; g-- {
		s.groupOf[s.ends[g]] = 0
		if g > 0 {
			s.groupStart[g] = s.groupStart[g-1]
		} else {
			s.groupStart[g] = 0
		}
	}
}

// resetMemo clears the memo entries set since the last reset.
func (w *walker) resetMemo() {
	for _, k := range w.touched {
		w.memo[k] = memoUnknown
	}
	w.touched = w.touched[:0]
}

// reaches reports whether code v at op boundary bi completes the rest of
// the chain: for closed plans, whether it reaches w.end at the close. Filter
// ops (opExists, opClose) advance iteratively; only branching pairs ops
// recurse and memoize.
func (w *walker) reaches(bi int, v uint32) bool {
	for {
		if bi == len(w.ops) {
			return true // an open plan's value survived every op
		}
		o := &w.ops[bi]
		switch o.kind {
		case opClose:
			if !w.closed {
				panic("query: open plan reached opClose")
			}
			if w.exec != nil {
				w.exec.rowsIn[bi]++
				if v == w.end {
					w.exec.rowsOut[bi]++
				}
			}
			return v == w.end
		case opExists:
			if w.exec != nil {
				w.exec.rowsIn[bi]++
			}
			if !o.exists.Has(v) {
				return false
			}
			if w.exec != nil {
				w.exec.rowsOut[bi]++
			}
			bi++
		default: // opBridge, opMap
			if bi == w.probe {
				return w.probeEnd(bi, v)
			}
			k := bi*w.stride + int(v)
			if m := w.memo[k]; m != memoUnknown {
				if w.exec != nil {
					w.exec.memoHits[bi]++
				}
				return m == memoTrue
			}
			if w.exec != nil {
				w.exec.rowsIn[bi]++
			}
			res := false
			for _, x := range o.pairs.Row(v) {
				w.scanned++
				if w.exec != nil {
					w.exec.postings[bi]++
				}
				if w.reaches(bi+1, x) {
					res = true
					break
				}
			}
			verdict := memoFalse
			if res {
				verdict = memoTrue
				if w.exec != nil {
					w.exec.rowsOut[bi]++
				}
			}
			w.memo[k] = verdict
			w.touched = append(w.touched, k)
			return res
		}
	}
}

// probeEnd answers the final pairs op of a closed plan: v's sorted list
// either contains the end code or not. When it does, the one matching value
// flows into the close op.
func (w *walker) probeEnd(bi int, v uint32) bool {
	w.scanned++
	_, ok := slices.BinarySearch(w.ops[bi].pairs.Row(v), w.end)
	if w.exec != nil {
		w.exec.rowsIn[bi]++
		w.exec.postings[bi]++
		if ok {
			w.exec.rowsOut[bi]++
			w.exec.rowsIn[bi+1]++
			w.exec.rowsOut[bi+1]++
		}
	}
	return ok
}
