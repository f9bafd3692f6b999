package types

import "strings"

// Row is a tuple of datums. Rows are value slices; callers that retain a row
// across iterator advances must Clone it.
type Row []Datum

// Clone returns a deep-enough copy of the row (datums are immutable values).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Size returns the accounted in-memory footprint of the row in bytes.
func (r Row) Size() int64 {
	var n int64 = 24
	for _, d := range r {
		n += d.Size()
	}
	return n
}

// Hash combines the hashes of the datums at the given column offsets; it is
// used for hash distribution and join buckets.
func (r Row) Hash(cols []int) uint64 {
	h := rowHashSeed
	for _, c := range cols {
		h = h*rowHashPrime ^ r[c].Hash()
	}
	return h
}

// HashKey is Hash over every datum of r in order: the hash of a key listed
// one datum per key column, equal to Hash(keyCols) of a row holding it.
func (r Row) HashKey() uint64 {
	h := rowHashSeed
	for _, d := range r {
		h = h*rowHashPrime ^ d.Hash()
	}
	return h
}

const rowHashSeed, rowHashPrime uint64 = 1469598103934665603, 1099511628211

// Equal reports column-wise equality under Compare semantics.
func (r Row) Equal(other Row) bool {
	if len(r) != len(other) {
		return false
	}
	for i := range r {
		if Compare(r[i], other[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders the row as a parenthesized tuple, for diagnostics and tests.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColumnIndex returns the offset of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Project returns a new schema containing the columns at the given offsets.
func (s *Schema) Project(cols []int) *Schema {
	out := &Schema{Columns: make([]Column, len(cols))}
	for i, c := range cols {
		out.Columns[i] = s.Columns[c]
	}
	return out
}

// Concat returns the schema of a join output: s followed by other.
func (s *Schema) Concat(other *Schema) *Schema {
	out := &Schema{Columns: make([]Column, 0, len(s.Columns)+len(other.Columns))}
	out.Columns = append(out.Columns, s.Columns...)
	out.Columns = append(out.Columns, other.Columns...)
	return out
}
