// Package client is the Go driver for the repro wire protocol: it dials a
// server, runs the startup handshake, and runs statements, each one Query
// frame carrying its text and $N parameters. It is what the network tests,
// gpshell -connect, and the network TPC-B bench speak through.
//
// Error taxonomy matters to callers running chaos tests: a *ServerError is
// a definitive statement failure reported by the server (the transaction is
// aborted server-side, the connection stays usable), while any other error
// is a transport failure — the statement's fate is ambiguous (it may or may
// not have committed before the socket died) and the connection is dead.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/types"
)

// ServerError is a statement error reported by the server over the wire.
// The session survives it; the current transaction (if any) is failed and
// must be rolled back, mirroring the in-process session contract. Code is
// the server's machine-readable classification (server.Code* constants) —
// use it, or the Retryable/AmbiguousFate helpers, instead of matching
// Message text.
type ServerError struct {
	Message string
	Code    string
}

func (e *ServerError) Error() string {
	if e.Code != "" {
		return e.Message + " (SQLSTATE " + e.Code + ")"
	}
	return e.Message
}

// Retryable reports whether the statement is safe to re-issue as-is: the
// server guarantees it did not take effect (breaker open / segment
// mid-failover before send, deadlock victim, lost-writes abort — the
// transaction rolled back whole).
func (e *ServerError) Retryable() bool {
	switch e.Code {
	case server.CodeRetryable, server.CodeDeadlock, server.CodeLostWrites:
		return true
	}
	return false
}

// AmbiguousFate reports whether the statement may have taken effect even
// though it errored: a dispatch failure after the operation reached a
// segment, or a cancel/timeout that raced the commit. Callers must
// reconcile state before retrying non-idempotent work.
func (e *ServerError) AmbiguousFate() bool {
	switch e.Code {
	case server.CodeAmbiguous, server.CodeCanceled:
		return true
	}
	return false
}

// Retryable classifies any error from this package: a *ServerError is
// retryable per its code; transport errors are never blindly retryable
// (the in-flight statement's fate is unknown — see AmbiguousFate).
func Retryable(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Retryable()
}

// AmbiguousFate reports whether err leaves the statement's fate unknown.
// Every transport error is ambiguous: the socket died with a statement
// possibly in flight. Server-reported errors are ambiguous only when their
// code says so.
func AmbiguousFate(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return se.AmbiguousFate()
	}
	return true
}

// Result is one statement's outcome.
type Result struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int64
	Tag          string
	// TxnStatus is the server's post-statement transaction state:
	// 'I' idle, 'T' in transaction, 'F' failed transaction.
	TxnStatus byte
}

// Client is one connection to a server. It is safe for use by one
// goroutine at a time (like database/sql's driver.Conn, not sql.DB).
type Client struct {
	mu        sync.Mutex
	nc        net.Conn
	sessionID uint64
	closed    bool

	// br reads the socket; in is the payload buffer frames are read into,
	// reused because the decoders copy out of it. out is the buffer each
	// request frame is encoded into and sent from with one Write.
	br      *bufio.Reader
	in, out []byte
}

// maxKeptBuf bounds the buffers a Client keeps between statements: one a
// large frame grew past it is dropped after use.
const maxKeptBuf = 128 << 10

// Dial connects, runs the startup handshake as role, and returns a live
// client. An empty role connects as the admin default.
func Dial(addr, role string) (*Client, error) {
	return DialTimeout(addr, role, 10*time.Second)
}

// DialTimeout is Dial with a connect/handshake deadline.
func DialTimeout(addr, role string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(time.Now().Add(timeout))
	c, err := Handshake(nc, role)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(time.Time{})
	return c, nil
}

// Handshake runs the startup handshake as role over nc, a connection the
// caller opened and set any deadline on, and returns a live client. It
// closes nc if the handshake fails.
func Handshake(nc net.Conn, role string) (*Client, error) {
	c := &Client{nc: nc, br: bufio.NewReader(nc)}
	st := &server.Startup{Version: server.ProtocolVersion, Role: role}
	if err := c.write(nil, server.MsgStartup, st.Append); err != nil {
		_ = nc.Close()
		return nil, err
	}
	// Expect AuthOK then Ready; an error frame here means we were refused.
	typ, payload, err := c.readFrame()
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	switch typ {
	case server.MsgAuthOK:
		ok, err := server.DecodeAuthOK(payload)
		if err != nil {
			_ = nc.Close()
			return nil, err
		}
		c.sessionID = ok.SessionID
	case server.MsgError:
		em, _ := server.DecodeErrorMsg(payload)
		_ = nc.Close()
		return nil, &ServerError{Message: em.Message, Code: em.Code}
	default:
		_ = nc.Close()
		return nil, fmt.Errorf("client: unexpected frame %q during handshake", typ)
	}
	if _, err := c.readUntilReady(nil); err != nil {
		_ = nc.Close()
		return nil, err
	}
	return c, nil
}

// SessionID is the server-assigned session identifier.
func (c *Client) SessionID() uint64 { return c.sessionID }

// Close terminates the session politely and closes the socket.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	_ = c.write(nil, server.MsgTerminate, nil)
	return c.nc.Close()
}

// Kill drops the socket without a terminate frame — the abrupt-disconnect
// path the churn chaos test exercises.
func (c *Client) Kill() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.nc.Close()
}

// Exec runs one statement with its $N parameters.
func (c *Client) Exec(ctx context.Context, sqlText string, params ...types.Datum) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("client: connection closed")
	}
	q := &server.Query{SQL: sqlText, Params: params}
	if err := c.write(ctx, server.MsgQuery, q.Append); err != nil {
		return nil, err
	}
	return c.readUntilReady(ctx)
}

// write sends one frame, encoded by payload (a message's Append method,
// or nil) into the reused output buffer, with one Write. It honours a
// context deadline if present.
func (c *Client) write(ctx context.Context, typ byte, payload func([]byte) []byte) error {
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok {
			_ = c.nc.SetWriteDeadline(d)
			defer c.nc.SetWriteDeadline(time.Time{})
		}
	}
	out, err := server.AppendFrame(c.out[:0], typ, payload)
	if cap(out) <= maxKeptBuf {
		c.out = out
	}
	if err != nil {
		return err
	}
	if _, err = c.nc.Write(out); err != nil {
		c.hangup()
	}
	return err
}

// hangup marks the client closed and closes its socket. It follows every
// transport error: a request may have gone out in part, or a response be
// left unread, so the stream's position is lost and a later call would
// read another statement's frames as its own.
func (c *Client) hangup() {
	c.closed = true
	_ = c.nc.Close()
}

// readFrame reads one frame through the buffered reader into the reused
// payload buffer. The payload is valid until the next readFrame.
func (c *Client) readFrame() (byte, []byte, error) {
	typ, payload, err := server.ReadFrameInto(c.br, c.in)
	if err == nil && cap(payload) <= maxKeptBuf {
		c.in = payload
	}
	return typ, payload, err
}

// readUntilReady consumes one statement's response stream: optional row
// description, data rows, a completion or error, then Ready. Any error but
// the statement's own *ServerError leaves the stream mid-response and hangs
// the client up.
func (c *Client) readUntilReady(ctx context.Context) (*Result, error) {
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok {
			_ = c.nc.SetReadDeadline(d)
			defer c.nc.SetReadDeadline(time.Time{})
		}
	}
	res, err := c.readResponse()
	// readResponse returns the statement's error as a bare *ServerError;
	// a type assertion, unlike errors.As, costs no allocation per call.
	if _, ok := err.(*ServerError); err != nil && !ok {
		c.hangup()
	}
	return res, err
}

// readResponse reads the frames of one response through its Ready.
func (c *Client) readResponse() (*Result, error) {
	res := &Result{}
	var srvErr *ServerError
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case server.MsgRowDesc:
			rd, err := server.DecodeRowDesc(payload)
			if err != nil {
				return nil, err
			}
			res.Columns = res.Columns[:0]
			for _, col := range rd.Cols {
				res.Columns = append(res.Columns, col.Name)
			}
		case server.MsgDataRow:
			dr, err := server.DecodeDataRow(payload)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, dr.Row)
		case server.MsgComplete:
			cm, err := server.DecodeComplete(payload)
			if err != nil {
				return nil, err
			}
			res.Tag = cm.Tag
			res.RowsAffected = cm.RowsAffected
		case server.MsgError:
			em, err := server.DecodeErrorMsg(payload)
			if err != nil {
				return nil, err
			}
			srvErr = &ServerError{Message: em.Message, Code: em.Code}
		case server.MsgReady:
			rd, err := server.DecodeReady(payload)
			if err != nil {
				return nil, err
			}
			res.TxnStatus = rd.Status
			if srvErr != nil {
				return nil, srvErr
			}
			return res, nil
		default:
			return nil, fmt.Errorf("client: unexpected frame %q in response", typ)
		}
	}
}

// WorkloadConn adapts a Client to workload.Conn so the TPC-B/CH-bench
// drivers run unchanged over the network.
type WorkloadConn struct {
	C *Client
}

// Exec implements workload.Conn.
func (w WorkloadConn) Exec(ctx context.Context, sqlText string, args ...types.Datum) (int, []types.Row, error) {
	res, err := w.C.Exec(ctx, sqlText, args...)
	if err != nil {
		return 0, nil, err
	}
	return int(res.RowsAffected), res.Rows, nil
}
