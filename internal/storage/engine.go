// Package storage implements the three table storage engines of the paper's
// §3.4 — PostgreSQL-style MVCC heap, append-optimized row (AO-row) and
// append-optimized column (AO-column) with per-column compression — behind a
// single scan/insert/update/delete interface, plus a hash index for OLTP
// point lookups.
//
// Every reader of a table goes through one method, Engine.Scan: it hands up
// chunks of consecutive tuple versions — MVCC header vectors over either the
// column store's typed vectors or the row engines' stored rows — skips the
// blocks a pushed predicate's zone maps rule out, and returns the error of a
// block it could not decode. SplitBlocks cuts a table into disjoint ranges
// for intra-segment parallel workers (aligned to the column store's sealed
// blocks), and decoded AO-column blocks are served from a byte-bounded LRU
// BlockCache shared per segment.
//
// Storage is deliberately "dumb": it stores tuple versions stamped with
// local transaction ids and answers low-level version operations. Waiting,
// locking and visibility policy live in the executor and txn layers.
package storage

import (
	"errors"

	"repro/internal/txn"
	"repro/internal/types"
)

// TupleID identifies a tuple version within one table on one segment.
// IDs are never reused.
type TupleID uint64

// InvalidTupleID is the zero tuple id.
const InvalidTupleID TupleID = 0

// Header carries a version's MVCC metadata.
type Header struct {
	TID  TupleID
	Xmin txn.XID
	Xmax txn.XID
	// UpdatedTo links to the replacing version when this version was
	// superseded by an UPDATE (the ctid chain), or InvalidTupleID.
	UpdatedTo TupleID
}

// ErrConcurrentWrite is returned by SetXmax when another transaction already
// stamped the version; the caller must wait on that transaction and retry.
type ErrConcurrentWrite struct {
	Holder txn.XID
}

func (e *ErrConcurrentWrite) Error() string {
	return "storage: tuple version already locked by concurrent writer"
}

// ErrNotSupported marks operations an engine does not implement.
var ErrNotSupported = errors.New("storage: operation not supported by this engine")

// Engine is the uniform storage interface. Implementations must be safe for
// concurrent use; the executor layers locking on top.
type Engine interface {
	// Kind names the engine ("heap", "ao_row", "ao_column").
	Kind() string

	// Insert appends a new version owned by x and returns its id.
	Insert(x txn.XID, row types.Row) TupleID

	// Scan visits the tuple versions (visible or not) whose row offsets fall
	// in [r.Begin, r.End), in tuple-id order, as chunks of at most batchSize
	// rows (< 1: types.DefaultBatchSize); it stops when fn returns false. It
	// covers at least every row stored when it began: the row engines read
	// their row count at the start, the column store also chases rows
	// appended while it runs. opts (nil = everything) narrows it: only
	// opts.Cols need be populated — the column store decodes only those, the
	// row engines hand their whole stored rows — and blocks whose zone map
	// rules out opts.Pred are skipped without being read; rows of the other
	// blocks are not filtered. A block that fails to decode ends the scan
	// with its error.
	Scan(r BlockRange, opts *ScanOpts, batchSize int, fn func(*Chunk) bool) error

	// SplitBlocks partitions the current rows into at most n disjoint,
	// covering, ascending ranges for parallel workers, aligned to the
	// engine's skip unit so no two workers read (or count) one block. Fewer
	// ranges come back when the table has fewer natural split points; a
	// zero-row table yields an explicit empty (non-nil) split.
	SplitBlocks(n int) []BlockRange

	// Fetch returns the header and row for tid.
	Fetch(tid TupleID) (Header, types.Row, bool)

	// SetXmax stamps version tid as deleted by x. It fails with
	// *ErrConcurrentWrite when another live-or-committed transaction already
	// stamped it; a caller that observed the previous stamper abort first
	// calls ClearXmax.
	SetXmax(tid TupleID, x txn.XID) error

	// ClearXmax removes an aborted deleter's stamp if it matches prev.
	ClearXmax(tid TupleID, prev txn.XID)

	// LinkUpdate records that old was replaced by new (the ctid chain).
	LinkUpdate(old, new TupleID)

	// Truncate discards all data.
	Truncate()

	// RowCount returns the number of stored versions (diagnostics).
	RowCount() int

	// Bytes returns the approximate storage footprint, after compression for
	// AO-column (used by storage benchmarks).
	Bytes() int64
}
