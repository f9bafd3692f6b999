package types

// Vec is a typed column vector, the unit of a batch's column layout. Exactly
// one payload slice is set: Ints for int/bool/date values, Floats, Strs, or —
// only when the values are not all of one kind — Boxed datums. NULLs are a
// bitmap beside the payload (a Boxed vector holds its NULLs as datums). The
// zero Vec stands for a column nobody populated: it reads NULL at every index.
//
// A Vec is a value holding slice headers: Slice and plain assignment share
// the payload, which is immutable once the vector is handed out (the block
// cache serves the same vectors to every concurrent scan).
type Vec struct {
	Kind   Kind // kind of every non-NULL value of a typed payload
	Ints   []int64
	Floats []float64
	Strs   []string
	Boxed  []Datum
	nulls  []uint64 // bit off+i set: value i is NULL; nil: no NULLs
	off    int
}

// VecOf builds a vector from datums: typed when every non-NULL value has the
// same kind, boxed otherwise. Text values keep referencing the datums'
// strings.
func VecOf(vals []Datum) Vec {
	var v Vec
	for _, d := range vals {
		switch {
		case d.kind == KindNull:
		case v.Kind == KindNull:
			v.Kind = d.kind
		case v.Kind != d.kind:
			return Vec{Boxed: append([]Datum(nil), vals...)}
		}
	}
	switch v.Kind {
	case KindFloat:
		v.Floats = make([]float64, len(vals))
	case KindText:
		v.Strs = make([]string, len(vals))
	default:
		if v.Kind == KindNull {
			v.Kind = KindInt // all NULL
		}
		v.Ints = make([]int64, len(vals))
	}
	for i, d := range vals {
		switch {
		case d.kind == KindNull:
			v.SetNull(i)
		case v.Floats != nil:
			v.Floats[i] = d.Float()
		case v.Strs != nil:
			v.Strs[i] = d.s
		default:
			v.Ints[i] = d.i
		}
	}
	return v
}

// Len returns the number of values.
func (v *Vec) Len() int { return len(v.Ints) + len(v.Floats) + len(v.Strs) + len(v.Boxed) }

// HasNulls reports whether the vector carries a NULL bitmap.
func (v *Vec) HasNulls() bool { return len(v.nulls) > 0 }

// Null reports whether value i is NULL by the bitmap (a Boxed NULL is a
// datum, not a bit).
func (v *Vec) Null(i int) bool {
	i += v.off
	return i>>6 < len(v.nulls) && v.nulls[i>>6]>>(uint(i)&63)&1 != 0
}

// SetNull marks value i NULL. Only the builder of a vector calls it, before
// the vector is shared.
func (v *Vec) SetNull(i int) {
	i += v.off
	for len(v.nulls) <= i>>6 {
		v.nulls = append(v.nulls, 0)
	}
	v.nulls[i>>6] |= 1 << (uint(i) & 63)
}

// At returns value i as a datum.
func (v *Vec) At(i int) Datum {
	switch {
	case v.Null(i):
		return Null
	case v.Boxed != nil:
		return v.Boxed[i]
	case v.Ints != nil:
		return Datum{kind: v.Kind, i: v.Ints[i]}
	case v.Floats != nil:
		return NewFloat(v.Floats[i])
	case v.Strs != nil:
		return Datum{kind: KindText, s: v.Strs[i]}
	}
	return Null
}

// Slice returns the window [lo, hi) of the vector, sharing its payload.
func (v *Vec) Slice(lo, hi int) Vec {
	out := Vec{Kind: v.Kind, nulls: v.nulls, off: v.off + lo}
	switch {
	case v.Boxed != nil:
		out.Boxed = v.Boxed[lo:hi:hi]
	case v.Ints != nil:
		out.Ints = v.Ints[lo:hi:hi]
	case v.Floats != nil:
		out.Floats = v.Floats[lo:hi:hi]
	case v.Strs != nil:
		out.Strs = v.Strs[lo:hi:hi]
	}
	return out
}

// Reset turns v into an n-value output buffer with no NULLs, reusing its
// payload and bitmap when they are big enough: Floats for KindFloat, Strs for
// KindText, Boxed for KindNull, Ints for every other kind. Values are
// whatever the buffer held; the caller writes every position it will read.
func (v *Vec) Reset(kind Kind, n int) {
	ints, floats, strs, boxed := v.Ints, v.Floats, v.Strs, v.Boxed
	*v = Vec{Kind: kind, nulls: v.nulls[:0]}
	switch kind {
	case KindFloat:
		v.Floats = resize(floats, n)
	case KindText:
		v.Strs = resize(strs, n)
	case KindNull:
		v.Boxed = resize(boxed, n)
	default:
		v.Ints = resize(ints, n)
	}
}

// Truncate empties v for refilling with Append, keeping its payload buffer,
// its kind (a column's kind rarely changes from one batch to the next) and
// the bitmap's capacity.
func (v *Vec) Truncate() {
	clear(v.nulls)
	*v = Vec{Kind: v.Kind, Ints: v.Ints[:0], Floats: v.Floats[:0], Strs: v.Strs[:0], Boxed: v.Boxed[:0], nulls: v.nulls[:0]}
}

// Append adds d to a vector under construction (the zero Vec, or one emptied
// by Truncate). The payload is typed by the first non-NULL value; a later
// value of another kind turns the vector boxed, as VecOf does, and it stays
// boxed across Truncate.
func (v *Vec) Append(d Datum) {
	if v.Ints != nil && d.kind == v.Kind { // inlined: an Ints payload never has kind NULL
		v.Ints = append(v.Ints, d.i)
		return
	}
	v.append(d)
}

func (v *Vec) append(d Datum) {
	n := v.Len()
	switch {
	case v.Boxed != nil:
		v.Boxed = append(v.Boxed, d)
		return
	case d.kind == KindNull:
		switch {
		case v.Floats != nil:
			v.Floats = append(v.Floats, 0)
		case v.Strs != nil:
			v.Strs = append(v.Strs, "")
		default:
			v.Ints = append(v.Ints, 0)
			v.Kind = max(v.Kind, KindInt) // all NULL so far reads as int, as in VecOf
		}
		v.SetNull(n)
		return
	case d.kind != v.Kind:
		for i := 0; i < n; i++ {
			if !v.Null(i) { // a second kind among the values: box them
				boxed := make([]Datum, n, 2*n)
				for j := range boxed {
					boxed[j] = v.At(j)
				}
				*v = Vec{Boxed: append(boxed, d)}
				return
			}
		}
		// Only NULLs so far: retype the payload to d's kind (the values
		// under NULL bits are never read).
		ints, floats, strs := v.Ints, v.Floats, v.Strs
		*v = Vec{Kind: d.kind, nulls: v.nulls}
		switch d.kind {
		case KindFloat:
			v.Floats = resize(floats, n)
		case KindText:
			v.Strs = resize(strs, n)
		default:
			v.Ints = resize(ints, n)
		}
	}
	switch d.kind {
	case KindFloat:
		v.Floats = append(v.Floats, d.Float())
	case KindText:
		v.Strs = append(v.Strs, d.s)
	default:
		v.Ints = append(v.Ints, d.i)
	}
}

// AppendFrom adds value i of src, as Append(src.At(i)) does, copying the
// payload without boxing it when src's is typed like v's.
func (v *Vec) AppendFrom(src *Vec, i int) {
	switch {
	case src.Null(i):
	case src.Ints != nil && v.Ints != nil && src.Kind == v.Kind:
		v.Ints = append(v.Ints, src.Ints[i])
		return
	case src.Floats != nil && v.Floats != nil:
		v.Floats = append(v.Floats, src.Floats[i])
		return
	case src.Strs != nil && v.Strs != nil:
		v.Strs = append(v.Strs, src.Strs[i])
		return
	}
	v.Append(src.At(i))
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Bytes returns the vector's memory footprint: payload, string bytes (text
// decoded from one block shares a single buffer of exactly that size) and
// NULL bitmap. The block cache charges it.
func (v *Vec) Bytes() int64 {
	n := int64(8*len(v.Ints) + 8*len(v.Floats) + 16*len(v.Strs) + 32*len(v.Boxed) + 8*len(v.nulls))
	for _, s := range v.Strs {
		n += int64(len(s))
	}
	for _, d := range v.Boxed {
		n += int64(len(d.s))
	}
	return n
}
