package exec

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/plan"
	"repro/internal/types"
)

// rowWindows emits a materialized row slice as consecutive windows of itself:
// each batch's container is a sub-slice of rows (capacity-clipped, so an
// append by a consumer can never reach the rows that follow), valid until the
// next call, and the Row values are never overwritten — the BatchIterator
// ownership contract without a copy. On its own it is the leaf for Values,
// for a scan pinned to another segment (no rows) and for tests; the
// materializing operators embed it to emit their buffer.
type rowWindows struct {
	rows []types.Row
	size int // rows per window; 0 = everything in one
	win  types.RowBatch
}

func (w *rowWindows) NextBatch() (*types.RowBatch, error) {
	if len(w.rows) == 0 {
		return nil, io.EOF
	}
	n := len(w.rows)
	if w.size > 0 && w.size < n {
		n = w.size
	}
	w.win = types.RowBatch{Rows: w.rows[:n:n]}
	w.rows = w.rows[n:]
	return &w.win, nil
}

func (w *rowWindows) Close() { w.rows = nil }

// errBatchIter reports a construction error on the first pull.
type errBatchIter struct{ err error }

func (e errBatchIter) NextBatch() (*types.RowBatch, error) { return nil, e.err }
func (e errBatchIter) Close()                              {}

func errBatchIterf(format string, args ...any) BatchIterator {
	return errBatchIter{err: fmt.Errorf(format, args...)}
}

// markedScanIter is a table access that goes through the store's
// row-callback path rather than the streaming batch scan: an index probe, or
// the SELECT ... FOR UPDATE scan, whose row lock is taken inside the storage
// callback for kept rows only. It loads on the first pull and emits the kept
// rows, cloned out of shared storage, as windows.
type markedScanIter struct {
	rowWindows
	ctx    *Context
	leaf   plan.Node // *plan.Scan or *plan.IndexScan
	filter plan.Expr
	lock   bool
	loaded bool
}

func newMarkedScanIter(ctx *Context, leaf plan.Node, lock bool) *markedScanIter {
	return &markedScanIter{rowWindows: rowWindows{size: ctx.batchSize()}, ctx: ctx, leaf: leaf,
		filter: leafFilter(leaf), lock: lock}
}

func (s *markedScanIter) NextBatch() (*types.RowBatch, error) {
	if !s.loaded {
		s.loaded = true
		if err := scanMarked(s.ctx, s.leaf, RowMark{Lock: s.lock}, s.visit); err != nil {
			return nil, err
		}
	}
	return s.rowWindows.NextBatch()
}

// visit is the storage callback: the filter's verdict on one visible row.
func (s *markedScanIter) visit(row types.Row) (bool, bool, error) {
	keep, err := plan.EvalBool(s.filter, row)
	if keep && err == nil {
		s.rows = append(s.rows, row.Clone())
	}
	return keep, true, err
}

// scanMarked drives a Scan or IndexScan leaf through the store's
// row-callback path under mark, with visit as the storage callback.
func scanMarked(ctx *Context, leaf plan.Node, mark RowMark, visit func(types.Row) (keep, cont bool, err error)) error {
	switch n := leaf.(type) {
	case *plan.Scan:
		spec := ScanSpec{Cols: n.Project, Pred: n.ScanPred}
		for _, l := range n.Partitions {
			if err := ctx.Store.ScanTable(ctx.Ctx, l, spec, mark, visit); err != nil {
				return err
			}
		}
		return nil
	case *plan.IndexScan:
		key := make([]types.Datum, len(n.KeyVals))
		for i, e := range n.KeyVals {
			v, err := e.Eval(nil)
			if err != nil {
				return err
			}
			key[i] = v
		}
		return ctx.Store.IndexLookup(ctx.Ctx, n.Table, n.Index, key, mark, visit)
	}
	return fmt.Errorf("exec: %T is not a table access", leaf)
}

// leafFilter returns a Scan's or IndexScan's filter.
func leafFilter(leaf plan.Node) plan.Expr {
	switch n := leaf.(type) {
	case *plan.Scan:
		return n.Filter
	case *plan.IndexScan:
		return n.Filter
	}
	return nil
}

// Modify is the executor's write sink, for INSERT, UPDATE and DELETE alike:
// the top slice of a write on each segment it targets. An INSERT takes its
// VALUES rows (the share routed here, ctx.Routed, when dispatch routed
// them) or pulls its child's, and stores each in the partition leaf that
// accepts it, one StoreAccess.InsertRow each. An UPDATE or DELETE runs the
// plan's access path as a target scan, collecting the identity of every row
// the path's filter keeps, and only then writes them, one
// StoreAccess.WriteRow each.
// Both read their whole input before the first write, so no row the
// statement writes is ever read by it again (the Halloween problem). It
// returns the rows written; armed operator statistics get them, and the
// access path's actual rows.
func Modify(ctx *Context, root plan.Node) (n int, err error) {
	if st := ctx.opStat(root); st != nil {
		defer func(t0 time.Time) {
			st.WallNanos.Add(time.Since(t0).Nanoseconds())
			st.Rows.Add(int64(n))
			st.Batches.Add(1)
		}(time.Now())
	}
	var up *plan.UpdatePlan // nil for a DELETE
	var child plan.Node
	switch x := root.(type) {
	case *plan.InsertPlan:
		return insert(ctx, x)
	case *plan.UpdatePlan:
		up, child = x, x.Child
	case *plan.DeletePlan:
		child = x.Child
	default:
		return 0, fmt.Errorf("exec: %T is not an INSERT, UPDATE or DELETE", root)
	}
	var t0 time.Time
	st := ctx.opStat(child)
	if st != nil {
		t0 = time.Now()
	}
	filter := leafFilter(child)
	var targets []RowID
	if err = scanMarked(ctx, child, RowMark{Targets: &targets}, func(row types.Row) (bool, bool, error) {
		keep, err := plan.EvalBool(filter, row)
		return keep, true, err
	}); err != nil {
		return 0, err
	}
	if st != nil {
		st.WallNanos.Add(time.Since(t0).Nanoseconds())
		st.Rows.Add(int64(len(targets)))
		st.Batches.Add(1)
	}
	for _, id := range targets {
		ok, err := ctx.Store.WriteRow(ctx.Ctx, id, up)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// insert is Modify's INSERT: every row of the child, stored.
func insert(ctx *Context, ip *plan.InsertPlan) (int, error) {
	rows := ctx.Routed
	if v, ok := ip.Child.(*plan.Values); ok && rows == nil {
		rows = v.Rows
	} else if rows == nil {
		c := *ctx // the child's operators keep a context: UPDATE's and DELETE's stays off the heap
		var err error
		if rows, err = DrainBatches(BuildBatch(&c, ip.Child)); err != nil {
			return 0, err
		}
	}
	for n, row := range rows {
		leaf := ip.Table.ID
		if ip.Table.IsPartitioned() {
			p := ip.Table.PartitionFor(row[ip.Table.PartitionCol])
			if p == nil {
				return n, fmt.Errorf("exec: no partition of %q accepts key %s", ip.Table.Name, row[ip.Table.PartitionCol])
			}
			leaf = p.ID
		}
		if err := ctx.Store.InsertRow(leaf, row); err != nil {
			return n, err
		}
	}
	return len(rows), nil
}

// fillBatch refills out with up to size rows pulled from next: the batch
// form of a row source that has to produce one row at a time (a loser-tree
// merge, spilled-partition replay). io.EOF once next is exhausted.
func fillBatch(out *types.RowBatch, size int, next func() (types.Row, error)) (*types.RowBatch, error) {
	out.Reset()
	for out.Len() < size {
		row, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out.Append(row)
	}
	if out.Len() == 0 {
		return nil, io.EOF
	}
	return out, nil
}

// batchSortIter materializes and sorts. Under a spill budget it is an
// external merge sort: when the accumulated rows exceed the budget they are
// sorted and dumped as a run file, and after input is exhausted the run files
// plus the in-memory residual are merged by a loser tree. Runs are numbered
// in input order and ties break toward the lower run, so the merged output is
// byte-identical to the stable in-memory sort. A sort that stayed in memory
// emits its buffer as windows; a merge is re-batched row by row.
//
// A key that is not a bare column is evaluated once per row, on arrival, and
// carried at the end of the buffered row until output. A top-N sort keeps
// its first Bound() rows in a heap ordered by key, then arrival (the stable
// sort's order), until they pass the spill floor and the full sort takes over.
type batchSortIter struct {
	rowWindows // rows buffers the input; sorted, it is the in-memory result
	ctx        *Context
	child      BatchIterator
	keys       []plan.SortKey
	cols       []int       // per key: its row offset; -1-j: evals[j]
	evals      []plan.Expr // the keys carried at the row's end
	scratch    types.Row
	bound      int      // the top-N's rows; 0 = all
	top        []ranked // the top-N heap, worst row first; nil once spent
	seq        int      // rows taken so far
	loaded     bool
	mem        opMem
	runs       []*spillFile
	tree       *loserTree
	out        types.RowBatch // reused merge output
}

// ranked is a top-N heap entry: a row and its arrival number.
type ranked struct {
	row types.Row
	seq int
}

// newBatchSortIter builds the sort; a top-N's output passes a limit.
func newBatchSortIter(ctx *Context, node *plan.Sort, child BatchIterator) BatchIterator {
	s := &batchSortIter{rowWindows: rowWindows{size: ctx.batchSize()}, ctx: ctx, child: child,
		keys: node.Keys, cols: make([]int, len(node.Keys)), bound: int(node.Bound()),
		mem: opMem{ctx: ctx, stat: ctx.opStat(node)}}
	for i, k := range node.Keys {
		if c, ok := k.Expr.(*plan.ColRef); ok {
			s.cols[i] = c.Idx
		} else {
			s.cols[i], s.evals = -1-len(s.evals), append(s.evals, k.Expr)
		}
	}
	if s.bound > 0 {
		s.top = make([]ranked, 0, min(s.bound, 1024))
		return &batchLimitIter{child: s, left: int64(s.bound)}
	}
	return s
}

// compare orders two buffered rows under the ORDER BY keys.
func (s *batchSortIter) compare(a, b types.Row) int {
	for i, k := range s.keys {
		ia, ib := s.cols[i], s.cols[i]
		if ia < 0 {
			ia, ib = len(a)-len(s.evals)-1-ia, len(b)-len(s.evals)-1-ib
		}
		if c := types.Compare(a[ia], b[ib]); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// worse orders heap entries: by key, then later arrival.
func (s *batchSortIter) worse(a, b ranked) bool {
	c := s.compare(a.row, b.row)
	return c > 0 || c == 0 && a.seq > b.seq
}

// take buffers live row i of b with its evaluated keys, or offers it to the
// top-N heap; a row gathered into scratch is copied only once it is kept.
func (s *batchSortIter) take(b *types.RowBatch, i int) error {
	var row types.Row
	scratch := b.Cols != nil || len(s.evals) > 0
	if b.Cols != nil {
		s.scratch = b.Cols.RowInto(s.scratch, b.Index(i))
	} else if row = b.Live(i); scratch {
		s.scratch = append(s.scratch[:0], row...)
	}
	if scratch {
		w := len(s.scratch)
		for _, e := range s.evals {
			v, err := e.Eval(s.scratch[:w])
			if err != nil {
				return err
			}
			s.scratch = append(s.scratch, v)
		}
		row = s.scratch
	}
	s.seq++
	full := s.top != nil && len(s.top) == s.bound
	if full && s.compare(row, s.top[0].row) >= 0 {
		return nil
	}
	if scratch {
		row = row.Clone()
	}
	if s.top != nil && s.mem.charged+row.Size() <= spillChunk(s.ctx.Spill.Budget()) {
		ok, err := s.mem.grow(row.Size())
		if ok {
			s.push(ranked{row, s.seq}, full)
		}
		if ok || err != nil {
			return err
		}
	}
	if s.top != nil {
		s.spendTop() // past the spill floor: the full sort takes over
	}
	return s.add(row)
}

// push puts e on the heap, in place of the worst row kept when it is full.
func (s *batchSortIter) push(e ranked, full bool) {
	h := s.top
	if !full {
		s.top = append(h, e)
		for j := len(h); j > 0 && s.worse(s.top[j], s.top[(j-1)/2]); j = (j - 1) / 2 {
			s.top[j], s.top[(j-1)/2] = s.top[(j-1)/2], s.top[j]
		}
		return
	}
	s.mem.release(h[0].row.Size())
	h[0] = e
	for j, w := 0, 1; w < len(h); j, w = w, 2*w+1 {
		if w+1 < len(h) && s.worse(h[w+1], h[w]) {
			w++
		}
		if !s.worse(h[w], h[j]) {
			break
		}
		h[j], h[w] = h[w], h[j]
	}
}

// spendTop moves the heap's rows to the buffer in arrival order, where the
// stable sort orders ties as they arrived.
func (s *batchSortIter) spendTop() {
	slices.SortFunc(s.top, func(a, b ranked) int { return a.seq - b.seq })
	for _, r := range s.top {
		s.rows = append(s.rows, r.row)
	}
	s.top = nil
}

// spillRun sorts the buffered rows, writes them as one run file, and releases
// their memory.
func (s *batchSortIter) spillRun() error {
	slices.SortStableFunc(s.rows, s.compare)
	sf, err := s.ctx.Spill.newFile(s.ctx.SegID, fmt.Sprintf("seg%d-sort-run%d", s.ctx.SegID, len(s.runs)))
	if err != nil {
		return err
	}
	sf.stat = s.mem.stat
	if err := s.mem.growFiles(spillFileOverhead); err != nil {
		sf.close()
		return err
	}
	for _, row := range s.rows {
		if err := sf.writeRow(row); err != nil {
			// The run is not in s.runs yet, so Close would never see it.
			sf.close()
			return err
		}
	}
	s.runs = append(s.runs, sf)
	s.rows = nil
	s.mem.freeAll()
	s.ctx.Spill.noteSpill()
	return nil
}

// add buffers one input row, dumping a run first when the budget says so.
func (s *batchSortIter) add(row types.Row) error {
	sz := row.Size()
	ok, err := s.mem.grow(sz)
	if err != nil {
		return err
	}
	if !ok && s.mem.charged >= spillChunk(s.ctx.Spill.Budget()) {
		if err := s.spillRun(); err != nil {
			return err
		}
		ok, err = s.mem.grow(sz)
		if err != nil {
			return err
		}
	}
	if !ok {
		// Below the spill-chunk floor (or a single row beyond the whole
		// budget): grow past the budget rather than shed a tiny run.
		if err := s.mem.forceGrow(sz); err != nil {
			return err
		}
	}
	s.rows = append(s.rows, row)
	return nil
}

func (s *batchSortIter) load() error {
	for {
		b, err := s.child.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, l := 0, b.Len(); i < l; i++ {
			if err := s.take(b, i); err != nil {
				return err
			}
		}
	}
	s.spendTop()
	slices.SortStableFunc(s.rows, s.compare)
	if len(s.runs) == 0 {
		for i, row := range s.rows {
			s.rows[i] = row[:len(row)-len(s.evals)]
		}
		return nil
	}
	// Merge the run files plus the residual rows (the final, highest-
	// numbered run, kept in memory).
	srcs := make([]mergeSource, 0, len(s.runs)+1)
	for _, sf := range s.runs {
		if err := sf.startRead(); err != nil {
			return err
		}
		srcs = append(srcs, fileSource{sf})
	}
	if len(s.rows) > 0 {
		srcs = append(srcs, &memSource{rows: s.rows})
	}
	tree, err := newLoserTree(srcs, s.compare)
	s.tree = tree
	return err
}

// pop is the next merged row, its evaluated keys stripped.
func (s *batchSortIter) pop() (types.Row, error) {
	row, err := s.tree.pop()
	return row[:max(len(row)-len(s.evals), 0)], err
}

func (s *batchSortIter) NextBatch() (*types.RowBatch, error) {
	if !s.loaded {
		if err := s.load(); err != nil {
			return nil, err
		}
		s.loaded = true
	}
	if s.tree != nil {
		return fillBatch(&s.out, s.size, s.pop)
	}
	return s.rowWindows.NextBatch()
}

func (s *batchSortIter) Close() {
	s.mem.closeAll()
	for _, sf := range s.runs {
		sf.close()
	}
	s.runs, s.rows, s.top = nil, nil, nil
	s.child.Close()
}

// batchLimitIter applies OFFSET and LIMIT by narrowing child batches: a
// batch that straddles either bound is re-windowed (rows or selection
// vector), never copied. LIMIT 0 never pulls, and once the count is
// satisfied the child is closed right away, so a streaming scan's producer
// or a sort's buffer does not outlive the rows that were wanted.
type batchLimitIter struct {
	child  BatchIterator
	skip   int64 // rows still to drop (OFFSET)
	left   int64 // rows still to emit; < 0 = unlimited
	out    types.RowBatch
	closed bool
}

func (l *batchLimitIter) NextBatch() (*types.RowBatch, error) {
	for {
		if l.left == 0 {
			l.Close()
			return nil, io.EOF
		}
		b, err := l.child.NextBatch()
		if err != nil {
			return nil, err
		}
		n := int64(b.Len())
		if l.skip >= n {
			l.skip -= n
			continue
		}
		lo, hi := l.skip, n
		l.skip = 0
		if l.left > 0 {
			hi = min(hi, lo+l.left)
			l.left -= hi - lo
		}
		if lo == 0 && hi == n {
			return b, nil
		}
		l.out = b.Window(int(lo), int(hi))
		return &l.out, nil
	}
}

func (l *batchLimitIter) Close() {
	if !l.closed {
		l.closed = true
		l.child.Close()
	}
}
