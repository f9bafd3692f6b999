package exec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/types"
)

// ErrDiskFull is the typed statement-cancellation error for a spill device
// out of space (organic ENOSPC or the spill_create/spill_write fault
// points). The server maps it to a dedicated error code so clients can
// detect it without string matching; the statement that hits it is canceled
// with all temp files and operator-memory accounting released.
var ErrDiskFull = errors.New("exec: disk full while spilling")

// Spilling: every blocking operator (sort, hash aggregate, hash join build)
// routes its working-set growth through an opMem, which charges the resource
// group's Vmemtracker AND reserves against the statement's spill budget
// (slot quota × memory_spill_ratio). When the budget cannot cover a growth
// request the operator degrades gracefully — it moves state to per-segment
// temp files and keeps going — instead of cancelling the query or starving
// concurrent OLTP work of memory (paper §6's motivation for resource-group
// memory isolation).

// SpillManager is one statement's spill state: the shared operator-memory
// budget, the temp directory holding every spill file, and the counters
// surfaced by EXPLAIN ANALYZE / SHOW spill_stats. One manager serves all
// slices and segments of the statement; it is safe for concurrent use.
type SpillManager struct {
	budget int64

	used atomic.Int64 // budget-reserved operator bytes
	hwm  atomic.Int64 // high-water mark of used

	spills     atomic.Int64 // spill events (run dumps, table flushes)
	spillBytes atomic.Int64 // bytes written to spill files
	spillFiles atomic.Int64 // spill files created

	mu    sync.Mutex
	dir   string
	files map[*spillFile]struct{}
	seq   int

	// Faults, when set, arms the spill_create/spill_write fault points
	// (evaluated with the spilling operator's segment id).
	Faults *fault.Registry
}

// NewSpillManager returns a manager enforcing the given operator-memory
// budget in bytes. budget <= 0 disables spilling (a nil manager does too).
func NewSpillManager(budget int64) *SpillManager {
	if budget <= 0 {
		return nil
	}
	return &SpillManager{budget: budget, files: make(map[*spillFile]struct{})}
}

// Enabled reports whether spilling is active.
func (m *SpillManager) Enabled() bool { return m != nil && m.budget > 0 }

// Budget returns the operator-memory budget in bytes.
func (m *SpillManager) Budget() int64 {
	if m == nil {
		return 0
	}
	return m.budget
}

// reserve takes n bytes of the budget, failing (reserving nothing) when the
// budget cannot cover the request — the caller's cue to spill.
func (m *SpillManager) reserve(n int64) bool {
	for {
		cur := m.used.Load()
		if cur+n > m.budget {
			return false
		}
		if m.used.CompareAndSwap(cur, cur+n) {
			for {
				h := m.hwm.Load()
				if cur+n <= h || m.hwm.CompareAndSwap(h, cur+n) {
					return true
				}
			}
		}
	}
}

// release returns bytes taken with reserve.
func (m *SpillManager) release(n int64) {
	if n > 0 {
		m.used.Add(-n)
	}
}

// noteSpill counts one spill event (a sorted run dump or a hash-table flush).
func (m *SpillManager) noteSpill() { m.spills.Add(1) }

// Stats snapshots the manager's counters: spill events, bytes written, files
// created, and the high-water mark of budget-tracked operator memory.
func (m *SpillManager) Stats() (spills, bytes, files, memPeak int64) {
	return m.spills.Load(), m.spillBytes.Load(), m.spillFiles.Load(), m.hwm.Load()
}

// spillFileOverhead is the accounted in-memory cost of one open spill file:
// the bufio buffer (the write buffer is dropped when the reader opens, so
// only one is live at a time). Charged to the resource group by the owning
// operator so buffer memory is visible to the model it serves, and released
// when the operator closes.
const spillFileOverhead = spillBufSize

// spillBufSize sizes a spill file's write and read buffers.
const spillBufSize = 4 << 10

// newFile creates a spill file in the manager's (lazily created) temp
// directory. seg is the spilling operator's segment id (for fault-point
// matching); label names the file for diagnostics, e.g. "seg0-sort-run3".
func (m *SpillManager) newFile(seg int, label string) (*spillFile, error) {
	if err := m.Faults.Inject(fault.SpillCreate, seg); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDiskFull, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dir == "" {
		dir, err := os.MkdirTemp("", "gpspill-")
		if err != nil {
			return nil, fmt.Errorf("exec: creating spill directory: %w", err)
		}
		m.dir = dir
	}
	m.seq++
	path := filepath.Join(m.dir, fmt.Sprintf("%04d-%s.spill", m.seq, label))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("exec: creating spill file: %w", err)
	}
	sf := &spillFile{m: m, f: f, seg: seg, w: bufio.NewWriterSize(f, spillBufSize)}
	m.files[sf] = struct{}{}
	m.spillFiles.Add(1)
	return sf, nil
}

func (m *SpillManager) untrack(sf *spillFile) {
	m.mu.Lock()
	delete(m.files, sf)
	m.mu.Unlock()
}

// Cleanup closes and removes every spill file still on disk plus the temp
// directory itself. Operators close their files as they finish, so on a clean
// run this only removes the empty directory; after a query error it is the
// backstop guaranteeing no temp files leak. It returns how many files it had
// to remove. Call only after all slices have retired.
func (m *SpillManager) Cleanup() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	leaked := len(m.files)
	for sf := range m.files {
		sf.f.Close()
		os.Remove(sf.f.Name())
	}
	m.files = make(map[*spillFile]struct{})
	dir := m.dir
	m.dir = ""
	m.mu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
	return leaked
}

// spillFile is one write-once-then-read temp file of encoded rows. It is used
// by a single operator goroutine at a time.
type spillFile struct {
	m     *SpillManager
	f     *os.File
	seg   int
	w     *bufio.Writer
	r     *bufio.Reader
	buf   []byte
	rows  int64
	bytes int64
	stat  *plan.OpSegStat // per-operator spill attribution; nil when disarmed
}

// writeRow appends one row, framed as uvarint(encoded length) followed by
// its types.AppendRow bytes.
func (sf *spillFile) writeRow(row types.Row) error {
	if err := sf.m.Faults.Inject(fault.SpillWrite, sf.seg); err != nil {
		return fmt.Errorf("%w: %w", ErrDiskFull, err)
	}
	sf.buf = types.AppendRow(sf.buf[:0], row)
	l := len(sf.buf)
	sf.buf = binary.AppendUvarint(sf.buf, uint64(l)) // the frame header, kept in buf so it needs no allocation
	n, err := sf.w.Write(sf.buf[l:])
	if err == nil {
		var m int
		m, err = sf.w.Write(sf.buf[:l])
		n += m
	}
	sf.bytes += int64(n)
	sf.m.spillBytes.Add(int64(n))
	if sf.stat != nil {
		sf.stat.Spill.Add(int64(n))
	}
	if err == nil {
		sf.rows++
	}
	return err
}

// startRead flushes pending writes, drops the write buffer, and rewinds for
// reading. Safe to call more than once; writes must not follow.
func (sf *spillFile) startRead() error {
	if sf.r != nil {
		return nil
	}
	if err := sf.w.Flush(); err != nil {
		return err
	}
	sf.w = nil // the reader replaces the writer in the accounted footprint
	if _, err := sf.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	sf.r = bufio.NewReaderSize(sf.f, spillBufSize)
	return nil
}

// readRow decodes the next row, returning io.EOF cleanly at a row boundary
// and io.ErrUnexpectedEOF mid-row. A frame longer than the file or a frame
// that does not decode to exactly one row is corruption.
func (sf *spillFile) readRow() (types.Row, error) {
	l, err := binary.ReadUvarint(sf.r)
	if err != nil {
		return nil, err // io.EOF at a boundary, io.ErrUnexpectedEOF mid-length
	}
	if l > uint64(sf.bytes) {
		return nil, fmt.Errorf("exec: corrupt spill file: %d-byte row in a %d-byte file", l, sf.bytes)
	}
	sf.buf = slices.Grow(sf.buf[:0], int(l))[:l]
	if _, err := io.ReadFull(sf.r, sf.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	row, rest, err := types.DecodeRow(sf.buf)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("exec: corrupt spill file: %w", err)
	}
	return row, nil
}

// close removes the file from disk and the manager's tracking.
func (sf *spillFile) close() {
	sf.f.Close()
	os.Remove(sf.f.Name())
	sf.m.untrack(sf)
}

// ---- operator memory accounting ----

// opMem is one operator's working-set account. grow charges both layers —
// the resource group's Vmemtracker (hard: exhaustion cancels the query) and
// the statement's spill budget (soft: exhaustion tells the operator to
// spill). freeAll unwinds both, e.g. after state has moved to disk.
type opMem struct {
	ctx      *Context
	charged  int64 // resgroup-charged bytes
	reserved int64 // spill-budget-reserved bytes
	files    int64 // resgroup-charged spill-file buffer bytes
	// stat, when operator statistics are armed, receives the operator's
	// peak-memory high-water mark and per-operator spill bytes for
	// EXPLAIN ANALYZE.
	stat *plan.OpSegStat
}

// notePeak records the account's current footprint as a candidate peak.
func (o *opMem) notePeak() { o.stat.MaxMem(o.charged + o.files) }

// grow charges n bytes. ok=false (with nil error) means the spill budget is
// exhausted and the operator should spill; a non-nil error is a hard
// out-of-memory cancellation from the resource group.
func (o *opMem) grow(n int64) (ok bool, err error) {
	sm := o.ctx.Spill
	if sm.Enabled() {
		if !sm.reserve(n) {
			return false, nil
		}
		o.reserved += n
	}
	if err := o.ctx.grow(n); err != nil {
		if sm.Enabled() {
			sm.release(n)
			o.reserved -= n
		}
		return false, err
	}
	o.charged += n
	o.notePeak()
	return true, nil
}

// forceGrow charges the resource group only, bypassing the spill budget. Used
// when spilling cannot help: a single row larger than the whole budget, a
// non-spillable operator (DISTINCT aggregates), or reloading one spilled
// partition whose size the fanout underestimated.
func (o *opMem) forceGrow(n int64) error {
	if err := o.ctx.grow(n); err != nil {
		return err
	}
	o.charged += n
	o.notePeak()
	return nil
}

// growFiles charges the resource group for spill-file buffer memory. Unlike
// charged, the file charge survives freeAll (the files stay open after their
// state's memory is released) and is returned only by closeAll.
func (o *opMem) growFiles(n int64) error {
	if err := o.ctx.grow(n); err != nil {
		return err
	}
	o.files += n
	o.notePeak()
	return nil
}

// freeAll returns the operator's state memory in both layers. Spill-file
// buffer charges are kept until closeAll.
func (o *opMem) freeAll() {
	if o.charged > 0 {
		o.ctx.shrink(o.charged)
	}
	if o.reserved > 0 && o.ctx.Spill.Enabled() {
		o.ctx.Spill.release(o.reserved)
	}
	o.charged, o.reserved = 0, 0
}

// release returns n bytes of state memory in both layers (an evicted row).
func (o *opMem) release(n int64) {
	o.ctx.shrink(n)
	o.charged -= n
	if r := min(n, o.reserved); r > 0 {
		o.ctx.Spill.release(r)
		o.reserved -= r
	}
}

// closeAll returns everything, including file buffer charges. Call when the
// operator closes.
func (o *opMem) closeAll() {
	o.freeAll()
	if o.files > 0 {
		o.ctx.shrink(o.files)
		o.files = 0
	}
}

// minSpillChunk is the smallest working set worth dumping to disk. The
// statement budget is shared by every blocking operator, so an operator
// starved by its neighbours would otherwise degenerate into one temp file per
// handful of rows; below the chunk floor it grows past the budget instead
// (bounding per-operator overshoot by this constant).
const minSpillChunk = 16 << 10

// spillChunk is the working set an operator accumulates before dumping: a
// quarter of the budget, floored at minSpillChunk.
func spillChunk(budget int64) int64 {
	c := budget / 4
	if c < minSpillChunk {
		c = minSpillChunk
	}
	return c
}

// spillFanout picks the partition count for a Grace hash join or aggregate
// spill: enough partitions that one partition's share of the estimated
// working set fits the budget, clamped to [4, 64] and rounded to a power of
// two (the partition function is hash % fanout).
func spillFanout(estBytes, budget int64) int {
	f := 16
	if estBytes > 0 && budget > 0 {
		need := estBytes/budget + 1
		f = 4
		for int64(f) < need && f < 64 {
			f *= 2
		}
	}
	return f
}

// spillPart is the partition among n of a row with key hash h: Bucket of h
// bit-reversed, so the rows of one segment, which share Bucket(h, nseg),
// still spread over every partition.
func spillPart(h uint64, n int) int { return types.Bucket(bits.Reverse64(h), n) }

// ---- loser-tree merge ----

// mergeSource yields rows in sorted order; io.EOF ends the stream.
type mergeSource interface {
	next() (types.Row, error)
}

// fileSource replays a sorted run file.
type fileSource struct{ sf *spillFile }

func (s fileSource) next() (types.Row, error) { return s.sf.readRow() }

// memSource replays an in-memory sorted run.
type memSource struct {
	rows []types.Row
	pos  int
}

func (s *memSource) next() (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// loserTree merges k sorted sources with ⌈log₂k⌉ comparisons per row (the
// classic tournament tree of losers). Ties break toward the lower source
// index, which — with runs numbered in input order — reproduces exactly the
// stable in-memory sort.
type loserTree struct {
	cmp   func(a, b types.Row) int
	srcs  []mergeSource
	heads []types.Row // current head per source; nil = exhausted
	tree  []int       // tree[0] = winner; tree[1..k-1] = loser at that node
	k     int
}

func newLoserTree(srcs []mergeSource, cmp func(a, b types.Row) int) (*loserTree, error) {
	k := len(srcs)
	t := &loserTree{cmp: cmp, srcs: srcs, heads: make([]types.Row, k), tree: make([]int, k), k: k}
	for i, s := range srcs {
		row, err := s.next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, err
		}
		t.heads[i] = row
	}
	// Play the full tournament bottom-up over the implicit heap-shaped tree
	// (internal nodes 1..k-1, leaves k..2k-1).
	win := make([]int, 2*k)
	for i := 0; i < k; i++ {
		win[k+i] = i
	}
	for p := k - 1; p >= 1; p-- {
		win[p], t.tree[p] = t.play(win[2*p], win[2*p+1])
	}
	if k == 1 {
		t.tree[0] = 0
	} else {
		t.tree[0] = win[1]
	}
	return t, nil
}

// play decides one match; an exhausted source always loses, ties go to the
// lower index.
func (t *loserTree) play(a, b int) (winner, loser int) {
	if t.heads[a] == nil {
		return b, a
	}
	if t.heads[b] == nil {
		return a, b
	}
	if c := t.cmp(t.heads[a], t.heads[b]); c < 0 || (c == 0 && a < b) {
		return a, b
	}
	return b, a
}

// pop removes and returns the smallest head row, refilling its source and
// replaying its path to the root. io.EOF once every source is exhausted.
func (t *loserTree) pop() (types.Row, error) {
	w := t.tree[0]
	if t.heads[w] == nil {
		return nil, io.EOF
	}
	row := t.heads[w]
	nxt, err := t.srcs[w].next()
	if err == io.EOF {
		t.heads[w] = nil
	} else if err != nil {
		return nil, err
	} else {
		t.heads[w] = nxt
	}
	s := w
	for p := (w + t.k) / 2; p >= 1; p /= 2 {
		s, t.tree[p] = t.play(s, t.tree[p])
	}
	t.tree[0] = s
	return row, nil
}
