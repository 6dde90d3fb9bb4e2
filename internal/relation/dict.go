package relation

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the coded layer under the query engine: a per-database value
// dictionary and the code-keyed indexes built from it. Tables keep storing
// Values; the dictionary maps every Value to a dense uint32 code so that
// joins, planner rewrites and evaluation memos can run on integer arrays
// instead of hashing Values.

// Dict is a database's append-only value dictionary. Every value stored in
// a registered table gets a dense uint32 code; codes are never reassigned,
// so code-keyed structures built earlier stay valid as the dictionary grows.
//
// Codes are assigned deterministically: Database.Dict interns the rows of
// every registered table in registration order, column by column, each
// column in row order, before any other caller interns a value. Two
// databases built the same way therefore assign the same codes, whatever
// order their indexes are later demanded in. Values outside the registered
// tables (an audited log that is not the database's Log) are interned on
// first encoding, after everything registered.
//
// Views made with Database.Derive share their source's dictionary, so a
// table registered in several of them is coded — and its coded indexes are
// cached — once.
//
// A Dict is safe for concurrent use.
type Dict struct {
	mu     sync.Mutex
	codes  map[Value]uint32
	values []Value
	n      atomic.Int64
}

func newDict() *Dict {
	return &Dict{codes: make(map[Value]uint32)}
}

// Len returns the number of values interned so far; every code in use is
// below it.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Code returns v's code and whether v has been interned.
func (d *Dict) Code(v Value) (uint32, bool) {
	d.mu.Lock()
	c, ok := d.codes[v]
	d.mu.Unlock()
	return c, ok
}

// Value returns the value behind code c. It panics if c was never assigned.
func (d *Dict) Value(c uint32) Value {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.values[c]
}

// intern returns v's code, assigning the next one if v is new. The caller
// holds d.mu.
func (d *Dict) intern(v Value) uint32 {
	if c, ok := d.codes[v]; ok {
		return c
	}
	c := uint32(len(d.values))
	d.codes[v] = c
	d.values = append(d.values, v)
	d.n.Store(int64(len(d.values)))
	return c
}

// EncodeColumn appends to dst the codes of column col for rows [from, to)
// of t, interning values the dictionary has not seen.
func (d *Dict) EncodeColumn(dst []uint32, t *Table, col, from, to int) []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r := from; r < to; r++ {
		dst = append(dst, d.intern(t.rows[r][col]))
	}
	return dst
}

// Dict returns the database's value dictionary after interning every row
// appended to a registered table since the last call (see Dict for the
// order). When nothing changed it costs one Version computation.
func (db *Database) Dict() *Dict {
	d := db.dict
	v := db.Version()
	if db.dictSynced.Load() == v+1 {
		return d
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, name := range db.order {
		t := db.tables[name]
		from, n := t.internedRows(d), len(t.rows)
		for c := range t.columns {
			for r := from; r < n; r++ {
				d.intern(t.rows[r][c])
			}
		}
		t.setInternedRows(d, n)
	}
	db.dictSynced.Store(v + 1)
	return d
}

// Derive returns an empty database that shares db's dictionary: a view that
// registers some of db's tables beside others (a different audited log,
// say) codes the shared tables — and reuses their coded indexes — exactly
// as db does.
func (db *Database) Derive() *Database {
	out := NewDatabase()
	out.dict = db.dict
	return out
}

// internedRows returns how many leading rows of t Database.Dict has interned
// into d.
func (t *Table) internedRows(d *Dict) int {
	t.internMu.Lock()
	defer t.internMu.Unlock()
	return t.interned[d]
}

func (t *Table) setInternedRows(d *Dict, n int) {
	t.internMu.Lock()
	defer t.internMu.Unlock()
	if t.interned == nil {
		t.interned = make(map[*Dict]int)
	}
	t.interned[d] = n
}

// CSR is a coded binary relation in compressed sparse row form: for each
// source code v, Row(v) is the ascending, duplicate-free list of target
// codes paired with it. Source slots cover the codes [Base, Base +
// len(Offsets) - 1); a code outside that range has no targets. A CSR is
// immutable once built.
type CSR struct {
	Base    uint32
	Offsets []uint32
	Targets []uint32
	// Keys counts the sources with at least one target.
	Keys int
}

// Row returns the targets paired with v (nil when there are none). The
// returned slice must not be modified.
func (c *CSR) Row(v uint32) []uint32 {
	i := uint(v - c.Base) // wraps to a huge slot when v < Base
	if i+1 >= uint(len(c.Offsets)) {
		return nil
	}
	return c.Targets[c.Offsets[i]:c.Offsets[i+1]]
}

// Slots returns the number of source slots (Row(Base+i) for i < Slots).
func (c *CSR) Slots() int { return max(len(c.Offsets)-1, 0) }

// NewCSR builds a CSR from (source, target) pairs packed as source<<32 |
// target. The slice is sorted and de-duplicated in place.
func NewCSR(pairs []uint64) *CSR {
	if len(pairs) == 0 {
		return &CSR{}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	lo, hi := uint32(pairs[0]>>32), uint32(pairs[len(pairs)-1]>>32)
	c := &CSR{
		Base:    lo,
		Offsets: make([]uint32, hi-lo+2),
		Targets: make([]uint32, len(pairs)),
	}
	for i, p := range pairs {
		c.Offsets[uint32(p>>32)-lo+1]++
		c.Targets[i] = uint32(p)
	}
	for i := 1; i < len(c.Offsets); i++ {
		if c.Offsets[i] != 0 {
			c.Keys++
		}
		c.Offsets[i] += c.Offsets[i-1]
	}
	return c
}

// CodeSet is a set of codes as a bitset; codes past its end are absent.
type CodeSet []uint64

// Has reports whether c is in the set.
func (s CodeSet) Has(c uint32) bool {
	w := uint(c >> 6)
	return w < uint(len(s)) && s[w]&(1<<(c&63)) != 0
}

// Add inserts c, growing the set as needed.
func (s *CodeSet) Add(c uint32) {
	w := int(c >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (c & 63)
}

// Count returns the number of codes in the set.
func (s CodeSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// codedKey identifies one coded index of a table: the dictionary it is
// coded against and the column pair (to = -1 for an exists set).
type codedKey struct {
	dict     *Dict
	from, to int
}

// CodedPairs returns the DISTINCT (from, to) projection coded against d —
// the CSR form of DistinctPairs — and whether this call built it rather than
// finding it cached. Like the other indexes it is built once under the
// table lock, immutable once published, and dropped by Append. A table
// registered in databases with different dictionaries keeps one CSR per
// dictionary (Database.Derive views share theirs).
func (t *Table) CodedPairs(d *Dict, from, to string) (*CSR, bool) {
	key := codedKey{d, t.mustColumn(from), t.mustColumn(to)}
	t.mu.RLock()
	c, ok := t.codedPairs[key]
	t.mu.RUnlock()
	if ok {
		return c, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.codedPairs[key]; ok {
		return c, false
	}
	fc := d.EncodeColumn(nil, t, key.from, 0, len(t.rows))
	tc := d.EncodeColumn(nil, t, key.to, 0, len(t.rows))
	pairs := make([]uint64, len(fc))
	for r := range fc {
		pairs[r] = uint64(fc[r])<<32 | uint64(tc[r])
	}
	c = NewCSR(pairs)
	if t.codedPairs == nil {
		t.codedPairs = make(map[codedKey]*CSR)
	}
	t.codedPairs[key] = c
	return c, true
}

// CodedExists returns the set of codes (against d) present in the named
// column, and whether this call built it; cached and invalidated like
// CodedPairs.
func (t *Table) CodedExists(d *Dict, column string) (CodeSet, bool) {
	key := codedKey{d, t.mustColumn(column), -1}
	t.mu.RLock()
	s, ok := t.codedExists[key]
	t.mu.RUnlock()
	if ok {
		return s, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.codedExists[key]; ok {
		return s, false
	}
	for _, c := range d.EncodeColumn(nil, t, key.from, 0, len(t.rows)) {
		s.Add(c)
	}
	if t.codedExists == nil {
		t.codedExists = make(map[codedKey]CodeSet)
	}
	t.codedExists[key] = s
	return s, true
}
