// Package wal implements the per-segment write-ahead log of the paper's
// fault-tolerance section: every storage mutation and transaction state
// change appends a self-framing record (length + CRC32 + payload) stamped
// with a monotonically increasing LSN. The log is the unit of durability
// (Flush charges the simulated fsync cost with PostgreSQL-style group
// commit) and the unit of replication (a shipper callback observes every
// frame in LSN order; a mirror replays frames into fresh storage engines).
//
// The log keeps its encoded image in memory — this simulation's stand-in
// for the log file on disk — so replay always goes through the real
// decode path: framing, CRC verification, and LSN sequencing are exercised
// on every mirror apply and every recovery. The image is a list of 64 KiB
// segments; a frame never spans two, and no byte once written is rewritten,
// so shippers are handed slices of the segments themselves.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/types"
)

// LSN is a log sequence number: the 1-based index of a record in its
// segment's log. 0 means "nothing".
type LSN uint64

// Type enumerates the record kinds.
type Type uint8

// Record types. DML records carry the leaf relation id and tuple ids; the
// transaction records carry the local xid and — because a segment's local
// transactions implement distributed ones — the distributed xid, which is
// what lets promotion-time recovery resolve in-doubt prepared transactions
// against the coordinator's commit records.
const (
	// TypeBegin records a local transaction's start (xid + dxid).
	TypeBegin Type = 1 + iota
	// TypeInsert records one stored tuple version (leaf, tid, xid, row).
	TypeInsert
	// TypeSetXmax records a delete/update stamp (leaf, tid, xid).
	TypeSetXmax
	// TypeClearXmax records an aborted stamper's cleanup (leaf, tid, prev xid).
	TypeClearXmax
	// TypeLinkUpdate records the ctid chain link (leaf, old tid, new tid).
	TypeLinkUpdate
	// TypeTruncate records a relation truncation (leaf).
	TypeTruncate
	// TypePrepare records 2PC phase one (xid + dxid).
	TypePrepare
	// TypeCommit records a local commit (xid + dxid).
	TypeCommit
	// TypeAbort records a local abort (xid + dxid).
	TypeAbort

	// typeEnd is one past the last record type: a decoded type byte outside
	// [TypeBegin, typeEnd) is corrupt.
	typeEnd
)

// valid reports whether t is a defined record type.
func (t Type) valid() bool { return t >= TypeBegin && t < typeEnd }

func (t Type) String() string {
	switch t {
	case TypeBegin:
		return "begin"
	case TypeInsert:
		return "insert"
	case TypeSetXmax:
		return "setxmax"
	case TypeClearXmax:
		return "clearxmax"
	case TypeLinkUpdate:
		return "linkupdate"
	case TypeTruncate:
		return "truncate"
	case TypePrepare:
		return "prepare"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one decoded log record. Fields not used by a type are zero.
type Record struct {
	Type Type
	LSN  LSN
	// Leaf is the leaf relation id (DML records).
	Leaf uint64
	// Xid is the local transaction id.
	Xid uint64
	// Dxid is the distributed transaction id (transaction records).
	Dxid uint64
	// TID is the tuple id (Insert/SetXmax/ClearXmax, LinkUpdate's old).
	TID uint64
	// TID2 is LinkUpdate's replacing tuple id.
	TID2 uint64
	// Row is the inserted tuple (Insert records).
	Row types.Row
}

// ErrCorrupt is returned when a frame fails CRC or structural validation.
var ErrCorrupt = errors.New("wal: corrupt record")

// ---- record codec ----

// Frame layout: u32 payload length, u32 CRC32(payload), payload. The
// payload is: u8 type, u64 lsn, then uvarint leaf/xid/dxid/tid/tid2 and the
// optional row. Self-framing means a reader needs no external index: it can
// walk the byte stream record by record and detect truncation or damage.

// EncodeRecord appends r's frame to dst and returns the extended slice.
func EncodeRecord(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(dst)
	dst = append(dst, byte(r.Type))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.LSN))
	dst = binary.AppendUvarint(dst, r.Leaf)
	dst = binary.AppendUvarint(dst, r.Xid)
	dst = binary.AppendUvarint(dst, r.Dxid)
	dst = binary.AppendUvarint(dst, r.TID)
	dst = binary.AppendUvarint(dst, r.TID2)
	dst = appendRow(dst, r.Row)
	payload := dst[p:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// DecodeFrame decodes the frame at the start of b, returning the record and
// the total frame size consumed.
func DecodeFrame(b []byte) (Record, int, error) {
	if len(b) < 8 {
		return Record{}, 0, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b))
	crc := binary.BigEndian.Uint32(b[4:])
	if len(b) < 8+n {
		return Record{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, len(b)-8, n)
	}
	payload := b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, 8 + n, nil
}

func decodePayload(p []byte) (Record, error) {
	if len(p) < 9 {
		return Record{}, fmt.Errorf("%w: short payload", ErrCorrupt)
	}
	r := Record{Type: Type(p[0]), LSN: LSN(binary.BigEndian.Uint64(p[1:]))}
	if !r.Type.valid() {
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, p[0])
	}
	p = p[9:]
	var err error
	if r.Leaf, p, err = uvarint(p); err != nil {
		return Record{}, err
	}
	if r.Xid, p, err = uvarint(p); err != nil {
		return Record{}, err
	}
	if r.Dxid, p, err = uvarint(p); err != nil {
		return Record{}, err
	}
	if r.TID, p, err = uvarint(p); err != nil {
		return Record{}, err
	}
	if r.TID2, p, err = uvarint(p); err != nil {
		return Record{}, err
	}
	if r.Row, p, err = decodeRow(p); err != nil {
		return Record{}, err
	}
	if len(p) != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return r, nil
}

func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return v, p[n:], nil
}

// appendRow encodes a row: uvarint(len+1) (0 = nil row), then per datum a
// kind byte and the kind's payload.
func appendRow(dst []byte, row types.Row) []byte {
	if row == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(row))+1)
	for _, d := range row {
		dst = append(dst, byte(d.Kind()))
		switch d.Kind() {
		case types.KindNull:
		case types.KindInt, types.KindDate:
			dst = binary.AppendVarint(dst, d.Int())
		case types.KindBool:
			if d.Bool() {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case types.KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Float()))
		case types.KindText:
			s := d.Text()
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

func decodeRow(p []byte) (types.Row, []byte, error) {
	n, p, err := uvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, p, nil
	}
	if n-1 > uint64(len(p)) { // every datum takes at least its kind byte
		return nil, nil, fmt.Errorf("%w: row of %d datums in %d bytes", ErrCorrupt, n-1, len(p))
	}
	row := make(types.Row, n-1)
	for i := range row {
		if len(p) < 1 {
			return nil, nil, fmt.Errorf("%w: truncated datum", ErrCorrupt)
		}
		kind := types.Kind(p[0])
		p = p[1:]
		switch kind {
		case types.KindNull:
			row[i] = types.Null
		case types.KindInt, types.KindDate:
			v, vn := binary.Varint(p)
			if vn <= 0 {
				return nil, nil, fmt.Errorf("%w: bad int datum", ErrCorrupt)
			}
			p = p[vn:]
			if kind == types.KindInt {
				row[i] = types.NewInt(v)
			} else {
				row[i] = types.NewDate(v)
			}
		case types.KindBool:
			if len(p) < 1 {
				return nil, nil, fmt.Errorf("%w: truncated bool datum", ErrCorrupt)
			}
			row[i] = types.NewBool(p[0] != 0)
			p = p[1:]
		case types.KindFloat:
			if len(p) < 8 {
				return nil, nil, fmt.Errorf("%w: truncated float datum", ErrCorrupt)
			}
			row[i] = types.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(p)))
			p = p[8:]
		case types.KindText:
			l, rest, err := uvarint(p)
			if err != nil {
				return nil, nil, err
			}
			if uint64(len(rest)) < l {
				return nil, nil, fmt.Errorf("%w: truncated text datum", ErrCorrupt)
			}
			row[i] = types.NewText(string(rest[:l]))
			p = rest[l:]
		default:
			return nil, nil, fmt.Errorf("%w: unknown datum kind %d", ErrCorrupt, kind)
		}
	}
	return row, p, nil
}

// ---- the log ----

// Log is one segment's append-only write-ahead log. Appends are serialized
// by a mutex (the log is a serial stream by definition); Flush runs under a
// separate mutex so a long simulated fsync doesn't block concurrent
// appends — late appenders ride the next sync (group commit).
type Log struct {
	mu      sync.Mutex
	segs    [][]byte // the image; only the last segment grows
	scratch []byte   // Append's encode buffer
	nextLSN LSN
	ship    func(lsn LSN, frame []byte)

	flushMu sync.Mutex
	flushed atomic.Uint64 // LSN

	records atomic.Int64
	bytes   atomic.Int64
	flushes atomic.Int64

	// faults/seg identify this log's fault points (nil registry = disarmed).
	faults *fault.Registry
	seg    int

	// flushLat, when set, observes the group-commit sync latency: the time
	// the flushing caller spends making its records durable. Riders whose
	// records an in-flight sync already covered observe nothing — they paid
	// nothing.
	flushLat *obs.Histogram

	// failErr is the log's wedged state: a simulated write or fsync failure
	// (or torn write) poisons the log the way a failed pwrite poisons a real
	// WAL file — nothing after the failure is trustworthy, so appends stop
	// and the owning segment treats the condition as fatal (the
	// PANIC-on-fsync-failure model). RecoverTruncate clears it.
	failErr atomic.Pointer[error]
}

// New returns an empty log whose first record gets LSN 1.
func New() *Log {
	return &Log{nextLSN: 1}
}

// AttachFaults wires the fault registry (and this log's segment id for spec
// matching) into the append/flush/ship paths.
func (l *Log) AttachFaults(reg *fault.Registry, seg int) {
	l.faults = reg
	l.seg = seg
}

// Err returns the log's wedged-state error: non-nil after a simulated write
// or fsync failure, until RecoverTruncate.
func (l *Log) Err() error {
	if p := l.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (l *Log) wedge(err error) {
	l.failErr.CompareAndSwap(nil, &err)
}

// Append assigns the next LSN to r, encodes it, appends the frame to the
// log image and ships it to the attached shipper. It returns the record's
// LSN, or 0 if the log is wedged (a prior simulated I/O failure) or an armed
// fault swallowed the write. Callers serialize mutation order themselves
// (engines log under their own mutex), so the log order matches the apply
// order; durability of a swallowed write is settled at fsync time, when the
// owning segment sees Err and goes down before acking.
func (l *Log) Append(r *Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failErr.Load() != nil {
		return 0
	}
	switch act, err := l.faults.Eval(fault.WALAppend, l.seg); act {
	case fault.ActError:
		l.wedge(err)
		return 0
	case fault.ActSkip:
		// The write is silently lost (bit-bucket disk): no LSN is consumed,
		// so the stream stays well-formed and the loss is only detectable by
		// comparing state — exactly the failure mode the chaos harness's
		// ledger reconciliation is built to catch.
		return 0
	case fault.ActTornWrite:
		// Simulated crash mid-write: a prefix of the frame reaches the log
		// image, nothing is shipped, and the log wedges. Recovery must
		// truncate the torn tail to resume.
		r.LSN = l.nextLSN
		l.nextLSN++
		frame := EncodeRecord(nil, r)
		cut := len(frame)/2 + 1
		if cut >= len(frame) {
			cut = len(frame) - 1
		}
		l.put(frame[:cut])
		l.bytes.Add(int64(cut))
		l.wedge(fmt.Errorf("wal: torn write of LSN %d (%d of %d bytes)", r.LSN, cut, len(frame)))
		return 0
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	l.scratch = EncodeRecord(l.scratch[:0], r)
	frame := l.put(l.scratch)
	l.records.Add(1)
	l.bytes.Add(int64(len(frame)))
	if l.ship != nil {
		if act, _ := l.faults.Eval(fault.WALShip, l.seg); act == fault.ActSkip || act == fault.ActError {
			// Drop the ship: the mirror sees an LSN gap on the next frame and
			// reports itself broken rather than silently diverging.
			return r.LSN
		}
		l.ship(r.LSN, frame)
	}
	return r.LSN
}

// AppendFrame verifies and appends an already-encoded frame (the mirror's
// receive path): the CRC must check out and the LSN must be exactly the next
// in sequence. It returns the decoded record.
func (l *Log) AppendFrame(frame []byte) (Record, error) {
	r, n, err := DecodeFrame(frame)
	if err != nil {
		return Record{}, err
	}
	if n != len(frame) {
		return Record{}, fmt.Errorf("%w: frame has %d trailing bytes", ErrCorrupt, len(frame)-n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.LSN != l.nextLSN {
		return Record{}, fmt.Errorf("wal: frame out of sequence: got LSN %d, want %d", r.LSN, l.nextLSN)
	}
	l.nextLSN++
	stored := l.put(frame)
	l.records.Add(1)
	l.bytes.Add(int64(len(frame)))
	if l.ship != nil {
		l.ship(r.LSN, stored)
	}
	return r, nil
}

// segSize is the capacity of one image segment.
const segSize = 64 << 10

// put copies frame into the tail segment, or into a new one when it does
// not fit there (a frame larger than segSize gets a segment of its own),
// and returns the stored bytes.
func (l *Log) put(frame []byte) []byte {
	n := len(l.segs)
	if n == 0 || len(l.segs[n-1])+len(frame) > cap(l.segs[n-1]) {
		l.segs = append(l.segs, make([]byte, 0, max(segSize, len(frame))))
		n++
	}
	seg := append(l.segs[n-1], frame...)
	l.segs[n-1] = seg
	return seg[len(seg)-len(frame) : len(seg) : len(seg)]
}

// walk decodes the frames of segs in order, calling fn with each record,
// its segment index and the frame's offset in that segment. It stops at
// the first damaged frame or error from fn and returns that error.
func walk(segs [][]byte, fn func(r Record, seg, off, n int) error) error {
	for i, seg := range segs {
		for off := 0; off < len(seg); {
			r, n, err := DecodeFrame(seg[off:])
			if err != nil {
				return fmt.Errorf("wal: segment %d offset %d: %w", i, off, err)
			}
			if err := fn(r, i, off, n); err != nil {
				return err
			}
			off += n
		}
	}
	return nil
}

// LastLSN returns the highest assigned LSN (0 when empty).
func (l *Log) LastLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// FlushedLSN returns the highest durably flushed LSN.
func (l *Log) FlushedLSN() LSN { return LSN(l.flushed.Load()) }

// Flush makes the caller's records durable, charging delay once per actual
// sync with group commit: a caller whose records were covered by a sync that
// started after they were appended returns for free. It returns the LSN the
// log is durable up to.
func (l *Log) Flush(delay time.Duration) LSN {
	target := uint64(l.LastLSN())
	if l.flushed.Load() >= target {
		return LSN(l.flushed.Load())
	}
	start := time.Now()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if l.flushed.Load() >= target {
		// A sync that began after our records were appended already covered
		// them (group commit).
		return LSN(l.flushed.Load())
	}
	if act, err := l.faults.Eval(fault.WALFlush, l.seg); act == fault.ActError {
		// Simulated fsync failure: durability of everything since the last
		// good sync is unknown, so the log wedges and the flushed horizon
		// stays put (the caller's segment goes down before acking anything).
		l.wedge(err)
		return LSN(l.flushed.Load())
	}
	// Sync everything present now — later appends ride along for free.
	cur := uint64(l.LastLSN())
	if delay > 0 {
		time.Sleep(delay)
	}
	l.flushed.Store(cur)
	l.flushes.Add(1)
	// Queueing behind an in-flight sync counts toward the latency this
	// caller saw — that is exactly what group commit trades for throughput.
	l.flushLat.Observe(time.Since(start))
	return LSN(cur)
}

// SetFlushLatency wires the histogram observing group-commit sync latency.
func (l *Log) SetFlushLatency(h *obs.Histogram) { l.flushLat = h }

// Stats returns cumulative counters: records appended, encoded bytes, and
// actual fsyncs performed (group-commit free rides are not counted).
func (l *Log) Stats() (records, bytes, flushes int64) {
	return l.records.Load(), l.bytes.Load(), l.flushes.Load()
}

// AttachShip installs the shipper called (under the append lock, so in LSN
// order) for every subsequent frame. Frames already in the log are first
// delivered to fn under the same lock, so the subscriber catches up from
// LSN 1 with no gap, overlap, or interleaving with concurrent appends —
// delivering the snapshot outside the lock would let a new frame overtake
// the history and break the receiver's LSN sequencing.
func (l *Log) AttachShip(fn func(lsn LSN, frame []byte)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var frames [][]byte
	if err := walk(l.segs, func(_ Record, seg, off, n int) error {
		frames = append(frames, l.segs[seg][off:off+n:off+n])
		return nil
	}); err != nil {
		return err
	}
	for i, f := range frames {
		fn(LSN(i+1), f)
	}
	l.ship = fn
	return nil
}

// DetachShip removes the shipper.
func (l *Log) DetachShip() {
	l.mu.Lock()
	l.ship = nil
	l.mu.Unlock()
}

// ReplayFrom decodes the log image and invokes fn for every record with
// LSN >= from, in order, verifying framing, CRCs and LSN sequence. Replay
// reads a snapshot of the log taken at call time.
func (l *Log) ReplayFrom(from LSN, fn func(Record) error) error {
	// The segments' current extents: the bytes under them are never
	// rewritten, so they are read after mu is released.
	l.mu.Lock()
	segs := slices.Clone(l.segs)
	l.mu.Unlock()
	want := LSN(1)
	return walk(segs, func(r Record, seg, off, _ int) error {
		if r.LSN != want {
			return fmt.Errorf("wal: replay out of sequence at segment %d offset %d: got LSN %d, want %d", seg, off, r.LSN, want)
		}
		want++
		if r.LSN < from {
			return nil
		}
		return fn(r)
	})
}

// Snapshot returns a copy of the encoded log image (the simulated on-disk
// bytes). Tests use it to assert byte-identical truncation.
func (l *Log) Snapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Concat(l.segs...)
}

// RecoverTruncate is crash recovery's first step over a possibly-torn log:
// it walks the image from the start and truncates at the first frame that is
// torn, CRC-bad, or out of LSN sequence — everything before it is intact by
// construction (each frame carries its own length and CRC), and nothing
// after a damaged frame can be trusted because frame boundaries derive from
// the damaged length header. It rewinds nextLSN to resume after the last
// good record, clears the wedged state, and returns the last good LSN plus
// how many bytes were dropped (0 when the log was clean — the call is
// idempotent and cheap to run on every recovery).
func (l *Log) RecoverTruncate() (LSN, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	want := LSN(1)
	seg, good := 0, 0 // where the last good frame ends
	_ = walk(l.segs, func(r Record, i, off, n int) error {
		if r.LSN != want {
			return ErrCorrupt
		}
		want++
		seg, good = i, off+n
		return nil
	})
	dropped := -good
	for _, b := range l.segs[seg:] {
		dropped += len(b)
	}
	if dropped > 0 {
		// The kept tail is capped, so a later append starts a new segment
		// rather than rewriting bytes past good.
		keep := l.segs[:seg]
		if good > 0 {
			keep = append(keep, l.segs[seg][:good:good])
		}
		clear(l.segs[len(keep):])
		l.segs = keep
		l.bytes.Add(int64(-dropped))
	}
	l.nextLSN = want
	if cur := uint64(want - 1); l.flushed.Load() > cur {
		l.flushed.Store(cur)
	}
	l.failErr.Store(nil)
	return want - 1, dropped
}
