package fault

// The fault-point catalog. Each constant names one call site on a critical
// path; docs/FAULTS.md documents which actions each point supports and the
// degradation behavior the system guarantees when it fires.
const (
	// WALAppend fires inside Log.Append before the frame is written.
	// Supports error (append fails, log wedges), torn-write (a prefix of the
	// frame is written and the log wedges — recovery must truncate), skip
	// (the record is silently lost), sleep, hang, panic.
	WALAppend = "wal_append"
	// WALFlush fires inside Log.Flush before the group-commit fsync.
	// Supports error (fsync failure: the log wedges and the segment goes
	// down, the PANIC-on-fsync model), sleep, hang, panic.
	WALFlush = "wal_flush"
	// WALShip fires before a frame is shipped to the mirror. Supports skip
	// (frame dropped: the mirror breaks on the LSN gap and is reported
	// unusable), sleep (replication delay), error (treated as skip).
	WALShip = "wal_ship"
	// MirrorApply fires in the mirror applier before each frame is applied.
	// Supports sleep (replication lag), error (mirror marked broken), hang,
	// skip (frame dropped: mirror breaks on the LSN gap).
	MirrorApply = "mirror_apply"
	// SpillCreate fires when an operator creates a spill temp file.
	// Supports error (surfaced as exec.ErrDiskFull — statement canceled,
	// accounting and temp files provably released), sleep, hang.
	SpillCreate = "spill_create"
	// SpillWrite fires on each spilled row write. Same actions as
	// SpillCreate; error simulates ENOSPC mid-write.
	SpillWrite = "spill_write"
	// DispatchSend fires before a statement or protocol message is sent to
	// a segment. Supports error (transient: retried with backoff, then
	// counted by the segment's circuit breaker), sleep, hang.
	DispatchSend = "dispatch_send"
	// DispatchRecv fires after a segment operation returns, before the
	// result is accepted. Supports error (retried only for idempotent
	// protocol ops; statement dispatch fails with a retryable error), sleep.
	DispatchRecv = "dispatch_recv"
	// TwopcPrepare fires in a segment's PREPARE handler (2PC wave one).
	// Supports error (transaction aborts cleanly), sleep, hang, panic.
	TwopcPrepare = "twopc_prepare"
	// TwopcCommit fires in a segment's COMMIT PREPARED / one-phase commit
	// handler. Supports error (retried: commit handlers are idempotent),
	// sleep, hang, panic.
	TwopcCommit = "twopc_commit"
	// HeapAccess fires on each index lookup a segment serves, before the
	// rows are fetched (a write of a row it found touches the same page and
	// does not fire again). Supports sleep (the random read a buffer-cache
	// miss costs), error (the statement fails), hang.
	HeapAccess = "heap_access"
	// LockAcquire fires on every lock-manager acquisition. Supports error,
	// sleep (lock-wait inflation), hang.
	LockAcquire = "lock_acquire"
	// SessionTeardown fires at the start of server session teardown.
	// Supports sleep, hang, error (logged; teardown still runs
	// unconditionally — the leak-free guarantee must hold).
	SessionTeardown = "session_teardown"
	// MoveStream fires in the online-expansion mover before each batch of
	// rows is copied toward the new placement (seg = the batch's source
	// segment). Supports error (the batch's transaction aborts and the whole
	// table move restarts from scratch), sleep (mover slowdown), hang.
	MoveStream = "move_stream"
	// MapFlip fires on the coordinator immediately before a table's
	// distribution map flips to the widened placement (seg = CoordinatorSeg).
	// Supports error (the flip is abandoned and the table move restarts),
	// sleep, hang.
	MapFlip = "map_flip"
)
