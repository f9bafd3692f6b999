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
