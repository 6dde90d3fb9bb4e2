package relation

import (
	"reflect"
	"slices"
	"testing"
)

// TestDictDistinguishesKinds pins that codes follow Value equality, kind
// included: the integer, date and string spellings of 5 and NULL are four
// values and get four codes, so a coded join can never match across kinds.
func TestDictDistinguishesKinds(t *testing.T) {
	tb := NewTable("T", "A")
	for _, v := range []Value{Int(5), Date(5), String("5"), Null(), Int(5)} {
		tb.Append(v)
	}
	db := NewDatabase()
	db.AddTable(tb)
	d := db.Dict()
	if d.Len() != 4 {
		t.Fatalf("dictionary holds %d values, want 4", d.Len())
	}
	seen := map[uint32]Value{}
	for _, v := range []Value{Int(5), Date(5), String("5"), Null()} {
		c, ok := d.Code(v)
		if !ok {
			t.Fatalf("%v not interned", v)
		}
		if w, dup := seen[c]; dup {
			t.Errorf("%v and %v share code %d", v, w, c)
		}
		seen[c] = v
		if got := d.Value(c); got != v {
			t.Errorf("Value(%d) = %v, want %v", c, got, v)
		}
	}
}

// TestDictCodesFollowTableOrder pins the deterministic assignment: tables
// in registration order, each column in row order, whatever is demanded
// first afterwards; values outside the registered tables come after.
func TestDictCodesFollowTableOrder(t *testing.T) {
	a := NewTable("A", "X", "Y")
	a.Append(Int(7), Int(1))
	a.Append(Int(8), Int(7))
	b := NewTable("B", "Z")
	b.Append(Int(9))
	b.Append(Int(1))
	db := NewDatabase()
	db.AddTable(a)
	db.AddTable(b)

	// Demand B's index first: the codes must not depend on it.
	cb, _ := b.CodedPairs(db.Dict(), "Z", "Z")
	d := db.Dict()
	want := []Value{Int(7), Int(8), Int(1), Int(9)}
	for c, v := range want {
		if got := d.Value(uint32(c)); got != v {
			t.Errorf("code %d = %v, want %v", c, got, v)
		}
	}
	if got := cb.Row(3); !reflect.DeepEqual(got, []uint32{3}) {
		t.Errorf("B.Z(9) row = %v, want [3]", got)
	}

	// Growth: an appended row's new value takes the next code, and so does
	// a value interned from outside the database.
	b.Append(Int(10))
	d = db.Dict()
	if c, _ := d.Code(Int(10)); c != 4 {
		t.Errorf("appended value got code %d, want 4", c)
	}
	other := NewTable("O", "V")
	other.Append(Int(11))
	if got := d.EncodeColumn(nil, other, 0, 0, 1); !reflect.DeepEqual(got, []uint32{5}) {
		t.Errorf("outside value encoded as %v, want [5]", got)
	}
}

// TestCodedPairsMatchesDistinctPairs decodes the CSR back into values and
// compares it with the Value-keyed DISTINCT projection it stands for, then
// checks that Append drops the coded caches like every other index.
func TestCodedPairsMatchesDistinctPairs(t *testing.T) {
	tb := sampleTable()
	db := NewDatabase()
	db.AddTable(tb)
	d := db.Dict()
	c, built := tb.CodedPairs(d, "Patient", "Doctor")
	if !built {
		t.Error("first CodedPairs call did not build")
	}
	got := map[Value][]Value{}
	for i := 0; i < c.Slots(); i++ {
		v := c.Base + uint32(i)
		for _, w := range c.Row(v) {
			got[d.Value(v)] = append(got[d.Value(v)], d.Value(w))
		}
	}
	want := tb.DistinctPairs("Patient", "Doctor")
	for k, ws := range got {
		slices.SortFunc(ws, Value.Compare)
		got[k] = ws
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded CSR = %v, want %v", got, want)
	}
	if c.Keys != len(want) {
		t.Errorf("Keys = %d, want %d", c.Keys, len(want))
	}
	if _, built := tb.CodedPairs(d, "Patient", "Doctor"); built {
		t.Error("second CodedPairs call rebuilt")
	}
	ex, _ := tb.CodedExists(d, "Doctor")
	if code, _ := d.Code(Int(12)); !ex.Has(code) {
		t.Error("exists set lacks doctor 12")
	}

	tb.Append(Int(4), Date(4), Int(13))
	d = db.Dict()
	c2, built := tb.CodedPairs(d, "Patient", "Doctor")
	if !built {
		t.Error("Append did not drop the coded pair index")
	}
	p4, _ := d.Code(Int(4))
	d13, _ := d.Code(Int(13))
	if !reflect.DeepEqual(c2.Row(p4), []uint32{d13}) {
		t.Errorf("appended pair missing: Row(4) = %v", c2.Row(p4))
	}
	if _, built := tb.CodedExists(d, "Doctor"); !built {
		t.Error("Append did not drop the coded exists set")
	}
}

// TestCSRRowOutOfRange pins the bounds contract: codes below Base or past
// the last slot — such as values interned after the index was built — have
// no targets.
func TestCSRRowOutOfRange(t *testing.T) {
	c := NewCSR([]uint64{5<<32 | 1, 5<<32 | 1, 7<<32 | 2, 5<<32 | 0})
	if c.Base != 5 || c.Slots() != 3 || c.Keys != 2 {
		t.Fatalf("CSR = %+v, want base 5, 3 slots, 2 keys", c)
	}
	for v, want := range map[uint32][]uint32{0: nil, 4: nil, 5: {0, 1}, 6: {}, 7: {2}, 8: nil, 1 << 31: nil} {
		if got := c.Row(v); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("Row(%d) = %v, want %v", v, got, want)
		}
	}
	if got := (&CSR{}).Row(0); got != nil {
		t.Errorf("empty CSR Row(0) = %v", got)
	}
	var s CodeSet
	s.Add(130)
	if !s.Has(130) || s.Has(129) || s.Has(1<<20) || s.Count() != 1 {
		t.Errorf("CodeSet = %v", s)
	}
}

// TestDeriveSharesDictionary pins that a derived view codes a shared table
// with its source's dictionary: the coded index built through one database
// is found cached through the other, and the view's own tables extend the
// same code space.
func TestDeriveSharesDictionary(t *testing.T) {
	shared := sampleTable()
	db := NewDatabase()
	db.AddTable(shared)
	c, _ := shared.CodedPairs(db.Dict(), "Patient", "Doctor")

	view := db.Derive()
	view.AddTable(shared)
	extra := NewTable("Extra", "Patient")
	extra.Append(Int(99))
	view.AddTable(extra)
	if view.Dict() != db.Dict() {
		t.Fatal("derived view has its own dictionary")
	}
	if again, built := shared.CodedPairs(view.Dict(), "Patient", "Doctor"); built || again != c {
		t.Error("shared table's coded index rebuilt through the derived view")
	}
	if code, ok := db.Dict().Code(Int(99)); !ok || int(code) != db.Dict().Len()-1 {
		t.Errorf("view's new value coded %d (ok=%v), want the last code", code, ok)
	}
}
