// Package server is the network front end: a TCP server speaking a simple
// length-prefixed framed protocol (startup/auth-stub, query with optional
// $N parameters, row description + data rows, errors, graceful terminate) over the embedded engine, with a session layer that
// multiplexes thousands of client connections onto a bounded worker pool.
//
// Wire format: every message is one frame
//
//	type (1 byte) | payload length (4 bytes, big endian) | payload
//
// Payload scalars are big endian; strings are u32 length + bytes; rows
// (parameters and result tuples) are in the layout types.AppendRow
// documents, the one the WAL and spill files use too. The
// codec is deliberately allocation-light and panic-free on arbitrary
// input — FuzzFrameCodec and FuzzServerSession hold it to that.
//
// Each message has an Append form that encodes onto a caller's buffer, and
// AppendFrame wraps it in a frame there, so both ends build what they send
// in one reused buffer and hand it to the socket in one Write. The server
// buffers a whole response — RowDesc, DataRows, Complete or Error, Ready —
// and writes it when the Ready that ends it goes in, or sooner once the buffer passes flushThreshold, so a large result
// streams in bounded memory. Both ends read through a bufio.Reader.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/types"
)

// Protocol limits. Oversized frames are rejected by header inspection
// before any payload allocation, so a hostile length prefix cannot OOM the
// server.
const (
	// ProtocolVersion is bumped on any incompatible frame change.
	// v2: ErrorMsg carries a machine-readable error code after the text.
	// v3: rows travel in the types.AppendRow layout shared with the WAL and
	// spill files, and RowDesc counts columns in a u32, so neither wraps
	// past 65 535 columns.
	// v4: the Parse/Bind/Execute/CloseStmt frames and their ParseOK/BindOK
	// acks are retired; a Query carries its parameters.
	ProtocolVersion = 4
	// MaxFrameLen bounds one frame's payload (16 MiB — a full batch of wide
	// text rows fits with room to spare).
	MaxFrameLen = 16 << 20
	// maxRowCols bounds the declared column count of a row/description so a
	// corrupt header cannot pre-allocate gigabytes.
	maxRowCols = 1 << 14
)

// Frame types, client → server.
const (
	// MsgStartup opens a session: protocol version + role name.
	MsgStartup = byte('S')
	// MsgQuery is a simple query: SQL text plus optional $N parameters.
	MsgQuery = byte('Q')
	// MsgTerminate closes the session cleanly.
	MsgTerminate = byte('X')
)

// Frame types, server → client.
const (
	// MsgAuthOK acknowledges startup and carries the session id.
	MsgAuthOK = byte('R')
	// MsgRowDesc describes result columns (name + type kind each).
	MsgRowDesc = byte('T')
	// MsgDataRow carries one result tuple.
	MsgDataRow = byte('D')
	// MsgComplete ends a successful statement: command tag + rows affected.
	MsgComplete = byte('K')
	// MsgError reports a statement or protocol error.
	MsgError = byte('!')
	// MsgReady says the session is ready for the next statement; the status
	// byte is 'I' (idle), 'T' (in transaction) or 'F' (failed transaction).
	MsgReady = byte('Z')
)

// Codec errors.
var (
	// ErrFrameTooLarge rejects a frame whose header declares more than
	// MaxFrameLen payload bytes.
	ErrFrameTooLarge = errors.New("server: frame exceeds maximum length")
	// errShortPayload is the sticky decode error for truncated payloads.
	errShortPayload = errors.New("server: truncated frame payload")
)

// frameHeaderLen is the type byte plus the u32 payload length.
const frameHeaderLen = 5

// AppendFrame appends one frame to dst: the header, the payload that
// payload appends (nil for an empty one), then the payload's length patched
// into the header. Nothing is copied: pass a message's Append method and it
// encodes straight into dst. A payload over MaxFrameLen is cut back off dst
// and reported as ErrFrameTooLarge.
func AppendFrame(dst []byte, typ byte, payload func([]byte) []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, typ, 0, 0, 0, 0)
	if payload != nil {
		dst = payload(dst)
	}
	n := len(dst) - start - frameHeaderLen
	if n > MaxFrameLen {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start+1:], uint32(n))
	return dst, nil
}

// ReadFrame reads one frame, enforcing MaxFrameLen before allocating.
func ReadFrame(r io.Reader) (byte, []byte, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto is ReadFrame reading into buf's storage when it has room
// (the header included), so a reader that recycles its payloads allocates
// nothing per frame. The payload may alias buf; the decoders copy every
// string and row out of it, so it can be reused once decoded.
func ReadFrameInto(r io.Reader, buf []byte) (byte, []byte, error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	typ, n := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameLen {
		return 0, nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// wbuf builds a frame payload.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)   { w.b = append(w.b, v) }
func (w *wbuf) u32(v int64) { w.b = binary.BigEndian.AppendUint32(w.b, uint32(v)) }
func (w *wbuf) u64(v uint64) {
	w.b = binary.BigEndian.AppendUint64(w.b, v)
}
func (w *wbuf) str(s string) {
	w.u32(int64(len(s)))
	w.b = append(w.b, s...)
}

// row appends r in the types.AppendRow layout.
func (w *wbuf) row(r types.Row) { w.b = types.AppendRow(w.b, r) }

// rbuf decodes a frame payload with sticky-error bounds checking: any
// truncation or bad tag flips err and every later read returns zero values,
// so decoders are straight-line code with one error check at the end.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = errShortPayload
	}
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *rbuf) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rbuf) u32() int64 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint32(b))
}

func (r *rbuf) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *rbuf) str() string {
	n := r.u32()
	return string(r.take(int(n)))
}

// row decodes a types.AppendRow row. The declared column count is checked
// against maxRowCols before DecodeRow allocates: this input comes from
// outside the program.
func (r *rbuf) row() types.Row {
	if r.err != nil {
		return nil
	}
	if n, k := binary.Uvarint(r.b[r.off:]); k > 0 && n > maxRowCols+1 {
		r.err = fmt.Errorf("server: row declares %d columns", n-1)
		return nil
	}
	row, rest, err := types.DecodeRow(r.b[r.off:])
	if err != nil {
		r.err = fmt.Errorf("server: %w", err)
		return nil
	}
	r.off = len(r.b) - len(rest)
	return row
}

// done checks the payload was consumed exactly — trailing garbage is a
// protocol error, not silently ignored.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("server: %d trailing bytes in frame", len(r.b)-r.off)
	}
	return nil
}

// ---- message encode/decode ----

// Startup opens a session.
type Startup struct {
	Version uint32
	Role    string
}

// Append appends the message payload to dst.
func (m *Startup) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.u32(int64(m.Version))
	w.str(m.Role)
	return w.b
}

// DecodeStartup unmarshals a MsgStartup payload.
func DecodeStartup(b []byte) (*Startup, error) {
	r := rbuf{b: b}
	m := &Startup{Version: uint32(r.u32()), Role: r.str()}
	return m, r.done()
}

// Query is a simple query with optional parameters.
type Query struct {
	SQL    string
	Params []types.Datum
}

// Append appends the message payload to dst.
func (m *Query) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.str(m.SQL)
	w.row(types.Row(m.Params))
	return w.b
}

// DecodeQuery unmarshals a MsgQuery payload.
func DecodeQuery(b []byte) (*Query, error) {
	r := rbuf{b: b}
	m := &Query{SQL: r.str(), Params: r.row()}
	return m, r.done()
}

// AuthOK acknowledges startup.
type AuthOK struct{ SessionID uint64 }

// Append appends the message payload to dst.
func (m *AuthOK) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.u64(m.SessionID)
	return w.b
}

// DecodeAuthOK unmarshals a MsgAuthOK payload.
func DecodeAuthOK(b []byte) (*AuthOK, error) {
	r := rbuf{b: b}
	m := &AuthOK{SessionID: r.u64()}
	return m, r.done()
}

// ColDesc is one result column.
type ColDesc struct {
	Name string
	Kind types.Kind
}

// RowDesc describes the result columns.
type RowDesc struct{ Cols []ColDesc }

// Append appends the message payload to dst.
func (m *RowDesc) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.u32(int64(len(m.Cols)))
	for _, c := range m.Cols {
		w.str(c.Name)
		w.u8(byte(c.Kind))
	}
	return w.b
}

// DecodeRowDesc unmarshals a MsgRowDesc payload.
func DecodeRowDesc(b []byte) (*RowDesc, error) {
	r := rbuf{b: b}
	n := r.u32()
	if n > maxRowCols {
		return nil, fmt.Errorf("server: row description declares %d columns", n)
	}
	m := &RowDesc{}
	for i := int64(0); i < n && r.err == nil; i++ {
		m.Cols = append(m.Cols, ColDesc{Name: r.str(), Kind: types.Kind(r.u8())})
	}
	return m, r.done()
}

// DataRow carries one result tuple.
type DataRow struct{ Row types.Row }

// Append appends the message payload to dst.
func (m *DataRow) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.row(m.Row)
	return w.b
}

// DecodeDataRow unmarshals a MsgDataRow payload.
func DecodeDataRow(b []byte) (*DataRow, error) {
	r := rbuf{b: b}
	m := &DataRow{Row: r.row()}
	return m, r.done()
}

// Complete ends a successful statement.
type Complete struct {
	Tag          string
	RowsAffected int64
}

// Append appends the message payload to dst.
func (m *Complete) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.str(m.Tag)
	w.u64(uint64(m.RowsAffected))
	return w.b
}

// DecodeComplete unmarshals a MsgComplete payload.
func DecodeComplete(b []byte) (*Complete, error) {
	r := rbuf{b: b}
	m := &Complete{Tag: r.str(), RowsAffected: int64(r.u64())}
	return m, r.done()
}

// SQLSTATE-flavored error codes carried in ErrorMsg.Code, so drivers
// classify failures structurally instead of string-matching error text.
const (
	// CodeInternal is the catch-all for unclassified statement errors.
	CodeInternal = "XX000"
	// CodeDiskFull reports a spill that ran out of disk (exec.ErrDiskFull).
	CodeDiskFull = "53100"
	// CodeDeadlock marks the statement a deadlock victim; the transaction
	// was aborted and can be retried from the top.
	CodeDeadlock = "40P01"
	// CodeCanceled reports a canceled or timed-out statement.
	CodeCanceled = "57014"
	// CodeLostWrites aborts a transaction whose writes landed on a segment
	// that failed over before commit; retrying re-runs it on the new primary.
	CodeLostWrites = "40001"
	// CodeRetryable reports a failure before the statement reached the
	// segment (circuit breaker open, segment mid-failover, pre-send dispatch
	// fault): nothing executed, so the client may retry as-is.
	CodeRetryable = "57P03"
	// CodeAmbiguous reports a dispatch failure after the operation reached
	// the segment: its fate is unknown and blind retry is unsafe.
	CodeAmbiguous = "58030"
	// CodeTxnAborted rejects statements inside a failed transaction block.
	CodeTxnAborted = "25P02"
)

// ErrorMsg reports an error to the client: human-readable text plus a
// machine-readable code (one of the Code* constants).
type ErrorMsg struct {
	Message string
	Code    string
}

// Append appends the message payload to dst.
func (m *ErrorMsg) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.str(m.Message)
	w.str(m.Code)
	return w.b
}

// DecodeErrorMsg unmarshals a MsgError payload.
func DecodeErrorMsg(b []byte) (*ErrorMsg, error) {
	r := rbuf{b: b}
	m := &ErrorMsg{Message: r.str(), Code: r.str()}
	return m, r.done()
}

// Ready says the session awaits the next statement.
type Ready struct{ Status byte }

// Append appends the message payload to dst.
func (m *Ready) Append(dst []byte) []byte {
	w := wbuf{dst}
	w.u8(m.Status)
	return w.b
}

// DecodeReady unmarshals a MsgReady payload.
func DecodeReady(b []byte) (*Ready, error) {
	r := rbuf{b: b}
	m := &Ready{Status: r.u8()}
	return m, r.done()
}
