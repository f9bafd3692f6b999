package types

// DefaultBatchSize is the shared batch size of the vectorized executor: the
// number of rows moved per operator call and per interconnect send.
const DefaultBatchSize = 256

// RowBatch is the unit of batch-at-a-time execution. It has two layouts. The
// row layout (Cols == nil) is an ordered slice of rows whose backing array is
// reused across Reset calls, so a producer that fills, hands out, and resets
// one batch per operator call allocates the container once. The column
// layout (Cols != nil, Rows == nil) is one typed vector per column: what an
// AO-column scan hands up, by reference into the block cache, and what the
// operators that read vectors pass on.
//
// Ownership, one rule throughout the executor: the *container* (b.Rows,
// b.Sel, b.Cols and its vectors) belongs to the producer and is valid until
// the consumer asks for the next batch, when the producer may refill it (the
// streaming scan recycles a small ring of them; a motion receiver gives each
// back to the interconnect, whose senders refill it). The Row values inside
// are never overwritten in place, so a consumer that retains rows past one
// call keeps the Row headers, never the container. Live on a column batch
// gathers a fresh Row, which is retainable like any other.
//
// Filtering uses a selection vector instead of compaction: when Sel is
// non-nil the live rows are positions Sel[0], Sel[1], ... and the rest of the
// batch is dead weight that downstream operators must not look at. Operators
// iterate live rows via Len/Live (or Len/Index over the vectors); a motion
// send copies only the live rows, so a batch arrives dense at its receiver.
type RowBatch struct {
	Rows []Row
	// Sel is the selection vector: ascending positions marking the rows that
	// survived filtering. nil means every row is live. An empty non-nil Sel
	// means the whole batch was filtered out.
	Sel []int
	// Cols, when non-nil, is the column layout (one word, so operators that
	// embed a RowBatch by value do not grow with it).
	Cols *ColBatch
}

// ColBatch is the column layout of a batch: the window [Lo, Lo+N) of one
// vector per column offset, so that every batch cut from one decoded block
// shares the block's vector headers. Position i of the batch is index Lo+i of
// Vecs; Vec applies the window. A column the producer did not populate is the
// zero Vec.
type ColBatch struct {
	Vecs  []Vec
	Lo, N int
}

// Vec returns column j's values at the batch's positions.
func (c *ColBatch) Vec(j int) Vec { return c.Vecs[j].Slice(c.Lo, c.Lo+c.N) }

// RowInto gathers position i into dst (reallocated when too short) and
// returns it.
func (c *ColBatch) RowInto(dst Row, i int) Row {
	if cap(dst) < len(c.Vecs) {
		dst = make(Row, len(c.Vecs))
	}
	dst = dst[:len(c.Vecs)]
	for j := range c.Vecs {
		dst[j] = c.Vecs[j].At(c.Lo + i)
	}
	return dst
}

// NewRowBatch returns an empty batch with the given row capacity.
func NewRowBatch(capacity int) *RowBatch {
	if capacity < 1 {
		capacity = DefaultBatchSize
	}
	return &RowBatch{Rows: make([]Row, 0, capacity)}
}

// Len returns the number of live rows in the batch (the selection's length
// when a selection vector is set).
func (b *RowBatch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Total()
}

// Total returns the number of positions, live or dead: the index space Sel
// points into.
func (b *RowBatch) Total() int {
	if b.Cols != nil {
		return b.Cols.N
	}
	return len(b.Rows)
}

// Index returns the position of the i-th live row (0 <= i < Len()).
func (b *RowBatch) Index(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// Live returns the i-th live row (0 <= i < Len()); on a column batch it is
// gathered into a fresh Row.
func (b *RowBatch) Live(i int) Row {
	i = b.Index(i)
	if b.Cols != nil {
		return b.Cols.RowInto(nil, i)
	}
	return b.Rows[i]
}

// Window returns a batch header over live rows [lo, hi) that shares b's
// contents (LIMIT and OFFSET narrow a batch this way, never by copying).
func (b *RowBatch) Window(lo, hi int) RowBatch {
	switch {
	case b.Sel != nil:
		return RowBatch{Rows: b.Rows, Sel: b.Sel[lo:hi:hi], Cols: b.Cols}
	case b.Cols == nil:
		return RowBatch{Rows: b.Rows[lo:hi:hi]}
	}
	return RowBatch{Cols: &ColBatch{Vecs: b.Cols.Vecs, Lo: b.Cols.Lo + lo, N: hi - lo}}
}

// Append adds a row to a row-layout batch. Producers fill dense batches;
// appending to a batch that carries a selection vector is a misuse (the new
// row's index would not be selected).
func (b *RowBatch) Append(r Row) { b.Rows = append(b.Rows, r) }

// Reset truncates the batch, keeping the backing array for reuse and
// clearing any selection.
func (b *RowBatch) Reset() {
	b.Rows = b.Rows[:0]
	b.Sel = nil
}

// Cap returns the row capacity of the backing array.
func (b *RowBatch) Cap() int { return cap(b.Rows) }
