// Package types defines the value model shared by every layer of the engine:
// datums (single values), rows, schemas, and the comparison/hash routines the
// planner, executor and storage engines rely on.
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the SQL types the engine supports.
type Kind uint8

const (
	// KindNull is the type of an untyped NULL literal.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer (covers int/bigint/smallint).
	KindInt
	// KindFloat is a 64-bit IEEE float (covers numeric/real in this engine).
	KindFloat
	// KindText is a variable-length string.
	KindText
	// KindBool is a boolean.
	KindBool
	// KindDate is a calendar date with day resolution.
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindText:
		return "text"
	case KindBool:
		return "bool"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Datum is a single SQL value. The zero Datum is NULL.
//
// Datum is a small value type passed by value throughout the engine: 32
// bytes, one word of numeric payload plus an optional string. A float keeps
// its IEEE bits in the same word an int, bool or date keeps its value in.
type Datum struct {
	kind Kind
	i    int64  // int, bool (0/1), date (days since epoch), float (math.Float64bits)
	s    string // text
}

// Null is the NULL datum.
var Null = Datum{kind: KindNull}

// NewInt returns an int datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewText returns a text datum.
func NewText(v string) Datum { return Datum{kind: KindText, s: v} }

// NewBool returns a bool datum.
func NewBool(v bool) Datum {
	if v {
		return Datum{kind: KindBool, i: 1}
	}
	return Datum{kind: KindBool}
}

// NewDate returns a date datum from days since the Unix epoch.
func NewDate(days int64) Datum { return Datum{kind: KindDate, i: days} }

// DateFromTime converts a time.Time to a date datum (UTC day).
func DateFromTime(t time.Time) Datum {
	return NewDate(t.UTC().Unix() / 86400)
}

// Kind reports the datum's type.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Int returns the integer payload. It is valid for int and date datums; a
// float reads 0.
func (d Datum) Int() int64 {
	if d.kind == KindFloat {
		return 0
	}
	return d.i
}

// Float returns the float payload, converting ints transparently; other
// kinds read 0.
func (d Datum) Float() float64 {
	switch d.kind {
	case KindFloat:
		return math.Float64frombits(uint64(d.i))
	case KindInt:
		return float64(d.i)
	}
	return 0
}

// Text returns the string payload.
func (d Datum) Text() string { return d.s }

// Bool returns the boolean payload; a float reads false.
func (d Datum) Bool() bool { return d.kind != KindFloat && d.i != 0 }

// String renders the datum the way a SQL client would print it.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.Float(), 'g', -1, 64)
	case KindText:
		return d.s
	case KindBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return time.Unix(d.i*86400, 0).UTC().Format("2006-01-02")
	default:
		return "?"
	}
}

// Size returns the approximate in-memory footprint in bytes; the executor's
// memory accounting (Vmemtracker) charges this per materialized datum. The
// constant predates the 32-byte layout and is kept so spill points do not
// move.
func (d Datum) Size() int64 {
	return int64(24 + len(d.s))
}

// numericRank orders kinds for cross-type numeric comparison.
func numericRank(k Kind) int {
	switch k {
	case KindInt, KindDate, KindBool:
		return 1
	case KindFloat:
		return 2
	default:
		return 0
	}
}

// Compare orders two datums: -1, 0, +1. NULL sorts before everything
// (matching NULLS FIRST in ascending order). Numeric kinds compare by value
// across int/float; other cross-kind comparisons order by kind.
func Compare(a, b Datum) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericRank(a.kind) > 0 && numericRank(b.kind) > 0 {
		switch {
		case a.kind != KindFloat && b.kind != KindFloat:
			return cmp.Compare(a.i, b.i)
		case a.kind != KindFloat:
			return cmpIntFloat(a.i, b.Float())
		case b.kind != KindFloat:
			return -cmpIntFloat(b.i, a.Float())
		}
		switch af, bf := a.Float(), b.Float(); {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0 // equal, or a NaN: NaN compares equal to every number
	}
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	if a.kind == KindText {
		return cmp.Compare(a.s, b.s)
	}
	return 0
}

// cmpIntFloat compares an int, date or bool payload with a float exactly:
// float64(i) may round, so a tie is settled in integers. An int equals a
// float only when it converts to it exactly, as the key hash assumes.
func cmpIntFloat(i int64, f float64) int {
	switch fi := float64(i); {
	case fi < f || f == 0x1p63: // 2^63 is above every int64
		return -1
	case fi > f:
		return 1
	case f != f:
		return 0
	}
	return cmp.Compare(i, int64(f))
}

// Equal reports datum equality under Compare semantics (NULL == NULL here;
// SQL ternary NULL handling is the expression evaluator's job).
func Equal(a, b Datum) bool { return Compare(a, b) == 0 }

// CastTo coerces the datum to the requested kind, mirroring implicit SQL
// casts. It returns an error for impossible conversions.
func (d Datum) CastTo(k Kind) (Datum, error) {
	if d.kind == k || d.kind == KindNull {
		return d, nil
	}
	switch k {
	case KindInt:
		switch d.kind {
		case KindFloat:
			return NewInt(int64(d.Float())), nil
		case KindText:
			v, err := strconv.ParseInt(d.s, 10, 64)
			if err != nil {
				return Null, fmt.Errorf("types: cannot cast %q to int", d.s)
			}
			return NewInt(v), nil
		case KindBool, KindDate:
			return NewInt(d.i), nil
		}
	case KindFloat:
		switch d.kind {
		case KindInt, KindDate:
			return NewFloat(float64(d.i)), nil
		case KindText:
			v, err := strconv.ParseFloat(d.s, 64)
			if err != nil {
				return Null, fmt.Errorf("types: cannot cast %q to float", d.s)
			}
			return NewFloat(v), nil
		}
	case KindText:
		return NewText(d.String()), nil
	case KindBool:
		switch d.kind {
		case KindInt:
			return NewBool(d.i != 0), nil
		case KindText:
			v, err := strconv.ParseBool(d.s)
			if err != nil {
				return Null, fmt.Errorf("types: cannot cast %q to bool", d.s)
			}
			return NewBool(v), nil
		}
	case KindDate:
		switch d.kind {
		case KindInt:
			return NewDate(d.i), nil
		case KindText:
			t, err := time.Parse("2006-01-02", d.s)
			if err != nil {
				return Null, fmt.Errorf("types: cannot cast %q to date", d.s)
			}
			return DateFromTime(t), nil
		}
	}
	return Null, fmt.Errorf("types: cannot cast %s to %s", d.kind, k)
}
