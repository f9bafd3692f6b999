package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/lockmgr"
	"repro/internal/types"
)

// Config tunes the network front end.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// MaxConns bounds concurrently connected sessions; connections past the
	// limit are refused with an error frame (default 4096).
	MaxConns int
	// Workers bounds concurrently *active transactions* across all
	// sessions — the worker pool thousands of connections multiplex onto.
	// A slot is taken when a connection's statement begins work and held
	// until its transaction ends (commit, rollback, or teardown), never
	// released mid-transaction: a session blocked on a row lock always
	// holds a slot, so the lock's holder — which also holds one — can
	// always run its COMMIT and release. Releasing between statements of
	// an open transaction would let lock holders queue behind lock
	// waiters and deadlock the pool itself. Connections whose statement
	// arrives while the pool is saturated queue until a slot frees.
	// Default 8 × GOMAXPROCS.
	Workers int
	// UseResourceGroups runs every session under its role's resource group:
	// transaction admission queues on the group's CONCURRENCY semaphore and
	// operator memory is governed by the group budget.
	UseResourceGroups bool
	// StmtTimeout caps each statement's wall time (0 = none). Sessions can
	// tighten it further with SET statement_timeout.
	StmtTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight statements before
	// cancelling them (default 5s).
	DrainTimeout time.Duration
	// MetricsAddr, when set, serves the observability HTTP endpoint
	// (Prometheus /metrics plus /debug/pprof) on the given address. Empty
	// keeps the endpoint off.
	MetricsAddr string
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 4096
	}
	if c.Workers <= 0 {
		c.Workers = 8 * runtime.GOMAXPROCS(0)
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Stats is a snapshot of the server's session-layer counters.
type Stats struct {
	// Accepted counts sessions that completed startup; Rejected counts
	// connections refused (capacity, bad startup, draining).
	Accepted, Rejected int64
	// Active is the current session count.
	Active int
	// Statements counts executed statements; Queued counts statements that
	// had to wait for a worker-pool slot.
	Statements, Queued int64
	// Canceled counts statements aborted by connection loss or shutdown.
	Canceled int64
}

// Server is the TCP front end over one embedded engine.
type Server struct {
	cfg    Config
	engine *core.Engine
	ln     net.Listener

	// Opt-in observability endpoint (Config.MetricsAddr).
	httpLn  net.Listener
	httpSrv *httpServer

	// workers is the bounded statement-execution pool (semaphore).
	workers chan struct{}

	mu       sync.Mutex
	conns    map[*conn]struct{}
	nextID   uint64
	draining bool
	closed   bool

	wg sync.WaitGroup

	accepted   atomic.Int64
	rejected   atomic.Int64
	statements atomic.Int64
	queued     atomic.Int64
	canceled   atomic.Int64
}

// New builds a server over an engine. Start actually listens.
func New(e *core.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		engine:  e,
		workers: make(chan struct{}, cfg.Workers),
		conns:   make(map[*conn]struct{}),
	}
}

// Start binds the listen address and serves it.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve starts the observability endpoint, when configured, and begins
// accepting sessions on ln in the background. Shutdown closes ln.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.startMetricsHTTP(); err != nil {
		_ = ln.Close()
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Stats snapshots the session-layer counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := len(s.conns)
	s.mu.Unlock()
	return Stats{
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Active:     active,
		Statements: s.statements.Load(),
		Queued:     s.queued.Load(),
		Canceled:   s.canceled.Load(),
	}
}

// SessionCount returns the number of live sessions (tests assert it drops
// to zero after churn).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.mu.Lock()
		over := s.draining || s.closed || len(s.conns) >= s.cfg.MaxConns
		s.mu.Unlock()
		s.wg.Add(1)
		if over {
			s.rejected.Add(1)
			go s.refuse(nc)
			continue
		}
		go s.handleConn(nc)
	}
}

// refuse turns away a connection the server has no room for. It takes the
// client's Startup frame first, under a short deadline and off the accept
// loop: closing a socket with unread input resets the connection instead of
// finishing it, and a reset can cost the client the refusal frame (its
// Startup write fails with EPIPE, or its read with ECONNRESET) — the refused
// client must always see the documented refusal.
func (s *Server) refuse(nc net.Conn) {
	defer s.wg.Done()
	_ = nc.SetDeadline(time.Now().Add(time.Second))
	_, _, _ = ReadFrame(nc)
	c := &conn{nc: nc}
	_ = c.send(MsgError, (&ErrorMsg{Message: "server: connection refused (at capacity or draining)"}).Append)
	c.close()
}

// Shutdown drains gracefully: stop accepting, let in-flight statements
// finish (up to DrainTimeout or ctx, whichever ends first), cancel
// stragglers, close every connection, and flush the WAL so everything
// acknowledged is durable. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if s.ln != nil {
		_ = s.ln.Close()
	}
	if s.httpSrv != nil {
		_ = s.httpSrv.Close() // drops scrapes in flight; metrics are stateless
	}
	// Idle sessions can go immediately; busy ones get the drain window to
	// finish their in-flight statement (the conn loop closes after it).
	for _, c := range conns {
		if !c.inflight.Load() {
			c.hangup()
		}
	}

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		// Drain window over: cancel in-flight statements and drop sockets.
		s.mu.Lock()
		for c := range s.conns {
			c.cancel(errServerShutdown)
			c.hangup()
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Everything acknowledged before the drain is group-commit flushed
	// durable (and applied on mirrors under sync replication).
	s.engine.Cluster().FlushWAL()
	return nil
}

var errServerShutdown = errors.New("server: shutting down")

// conn is one client session.
type conn struct {
	id  uint64
	srv *Server
	nc  net.Conn

	sess     *core.Session
	prepared map[string]*core.Prepared
	// portal is the bound (statement, params) pair awaiting MsgExecute.
	portal *portal

	// inflight marks a statement executing right now (drain decisions).
	inflight atomic.Bool
	// hasSlot marks a held worker-pool slot; owned by the executor
	// goroutine, held across statements while a transaction is open.
	hasSlot bool
	// cctx is cancelled when the socket dies or the server force-drains;
	// every statement executes under it.
	cctx   context.Context
	cancel context.CancelCauseFunc

	// writeMu covers out, the frames not yet written to the socket (the
	// conn loop is the only writer during normal operation; the mutex
	// covers the error frame a rejected drain might race).
	writeMu sync.Mutex
	out     []byte
}

// portal is the connection's bound statement: the prepared statement it
// was bound from, by name and by value, and the bound parameters.
type portal struct {
	name   string
	prep   *core.Prepared
	params []types.Datum
}

// Output buffering. A response is written when the frame that ends it goes
// in, or as soon as the buffer holds flushThreshold bytes, so one write
// carries at most flushThreshold-1 bytes plus one frame. A buffer that a
// large frame grew past maxKeptBuf is dropped after its write rather than
// kept for the life of the connection; the reader recycles payload buffers
// up to the same size.
const (
	flushThreshold = 32 << 10
	maxKeptBuf     = 4 * flushThreshold
)

// hangup force-closes the socket (reader unblocks, conn tears down).
func (c *conn) hangup() { _ = c.nc.Close() }

// send appends one frame to the output buffer. It writes the buffer out
// when the frame ends a response — Ready, or the ParseOK and BindOK acks,
// after which the client sends its next request — or when the buffer has
// reached flushThreshold. A response is thus one Write, and an Error is
// written together with the Ready that follows it.
func (c *conn) send(typ byte, payload func([]byte) []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	out, err := AppendFrame(c.out, typ, payload)
	c.out = out
	if err != nil {
		return err
	}
	if typ == MsgReady || typ == MsgParseOK || typ == MsgBindOK || len(c.out) >= flushThreshold {
		return c.flushLocked()
	}
	return nil
}

// flushLocked writes out the buffered frames; the caller holds writeMu.
func (c *conn) flushLocked() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.out)
	if cap(c.out) > maxKeptBuf {
		c.out = nil
	} else {
		c.out = c.out[:0]
	}
	return err
}

// flush writes out the buffered frames.
func (c *conn) flush() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.flushLocked()
}

// close writes out what is still buffered — the error frame of a failed
// handshake or a refusal — and closes the socket.
func (c *conn) close() {
	_ = c.flush()
	_ = c.nc.Close()
}

func (c *conn) sendErr(err error) error {
	return c.send(MsgError, (&ErrorMsg{Message: err.Error(), Code: errorCode(err)}).Append)
}

// errorCode classifies a statement error into its wire code. Order matters:
// the typed sentinels are checked before the broader dispatch-shape matches.
func errorCode(err error) string {
	switch {
	case errors.Is(err, exec.ErrDiskFull):
		return CodeDiskFull
	case errors.Is(err, lockmgr.ErrDeadlockVictim):
		return CodeDeadlock
	case errors.Is(err, core.ErrTxnAborted):
		return CodeTxnAborted
	case errors.Is(err, cluster.ErrTxnLostWrites):
		return CodeLostWrites
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	case cluster.IsRetryableDispatch(err), cluster.IsSegmentDown(err):
		return CodeRetryable
	}
	var de *cluster.DispatchError
	if errors.As(err, &de) {
		// Post-send dispatch failure (the pre-send case matched above): the
		// operation may have executed on the segment.
		return CodeAmbiguous
	}
	return CodeInternal
}

func (c *conn) sendReady() error {
	return c.send(MsgReady, (&Ready{Status: c.sess.TxnStatus()}).Append)
}

// handleConn runs one session: startup handshake, then the frame loop.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{srv: s, nc: nc}
	reject := func(m *ErrorMsg) {
		s.rejected.Add(1)
		_ = c.send(MsgError, m.Append)
		c.close()
	}
	// The reader goroutine below reads on through br: it may already hold
	// frames a pipelining client sent after its Startup.
	br := bufio.NewReader(nc)
	// Startup must arrive promptly; a silent socket cannot hold a slot.
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := ReadFrame(br)
	if err != nil || typ != MsgStartup {
		reject(&ErrorMsg{Message: "server: expected startup frame"})
		return
	}
	st, err := DecodeStartup(payload)
	if err != nil || st.Version != ProtocolVersion {
		reject(&ErrorMsg{Message: fmt.Sprintf("server: bad startup (want protocol %d)", ProtocolVersion)})
		return
	}
	sess, err := s.engine.NewSession(st.Role)
	if err != nil {
		reject(&ErrorMsg{Message: err.Error()})
		return
	}
	_ = nc.SetReadDeadline(time.Time{})
	if s.cfg.UseResourceGroups {
		sess.UseResourceGroup(true, 0)
	}

	cctx, cancel := context.WithCancelCause(context.Background())
	c.sess, c.prepared, c.cctx, c.cancel = sess, make(map[string]*core.Prepared), cctx, cancel
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		reject(&ErrorMsg{Message: errServerShutdown.Error(), Code: CodeInternal})
		sess.Close()
		return
	}
	s.nextID++
	c.id = s.nextID
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.accepted.Add(1)

	// Session teardown is unconditional: whatever killed the connection —
	// clean terminate, abrupt socket close mid-transaction, drain — the
	// open transaction rolls back and the resource-group slot frees.
	defer func() {
		cancel(nil)
		// The session_teardown fault point may delay (sleep/hang) or fail
		// here, but the rollback and slot release below run regardless — an
		// injected teardown failure must never leak a session or its locks.
		_, _ = s.engine.Cluster().Faults().Eval(fault.SessionTeardown, cluster.CoordinatorSeg)
		sess.Close()
		c.close()
		if c.hasSlot {
			c.hasSlot = false
			<-s.workers
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	if err := c.send(MsgAuthOK, (&AuthOK{SessionID: c.id}).Append); err != nil {
		return
	}
	if err := c.sendReady(); err != nil {
		return
	}

	// The reader goroutine owns the socket's read side: frames flow to the
	// session loop over a small channel (modest pipelining), and a read
	// error — the client vanished — cancels the in-flight statement. The
	// loop hands each payload back through free once dispatched (the
	// decoders copied what they keep), and the reader reads the next frame
	// into it. A client that waits for each reply has one or two frames in
	// flight, so a few spare buffers cover it; frames pipelined past them
	// get fresh ones.
	type frame struct {
		typ     byte
		payload []byte
	}
	frames := make(chan frame, 8)
	free := make(chan []byte, 4)
	go func() {
		defer close(frames)
		for {
			var buf []byte
			select {
			case buf = <-free:
			default:
			}
			typ, payload, err := ReadFrameInto(br, buf)
			if err != nil {
				cancel(err)
				return
			}
			select {
			case frames <- frame{typ, payload}:
			case <-cctx.Done():
				return
			}
		}
	}()

	for fr := range frames {
		if !c.dispatch(fr.typ, fr.payload) {
			return
		}
		if cap(fr.payload) <= maxKeptBuf {
			select {
			case free <- fr.payload:
			default:
			}
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			// Statement finished and its Ready went out: drain closes the
			// session at the statement boundary.
			return
		}
	}
}

// dispatch handles one frame; false ends the session.
func (c *conn) dispatch(typ byte, payload []byte) bool {
	switch typ {
	case MsgTerminate:
		return false

	case MsgQuery:
		q, err := DecodeQuery(payload)
		if err != nil {
			return c.protoErr(err)
		}
		c.runStatement(func(ctx context.Context) (*core.Result, error) {
			return c.sess.Exec(ctx, q.SQL, q.Params...)
		})
		return true

	case MsgParse:
		p, err := DecodeParse(payload)
		if err != nil {
			return c.protoErr(err)
		}
		prep, err := c.sess.Prepare(p.SQL)
		if err != nil {
			_ = c.sendErr(err)
			_ = c.sendReady()
			return true
		}
		c.prepared[p.Name] = prep
		_ = c.send(MsgParseOK, nil)
		return true

	case MsgBind:
		b, err := DecodeBind(payload)
		if err != nil {
			return c.protoErr(err)
		}
		prep, ok := c.prepared[b.Name]
		if !ok {
			// A failed Bind leaves no portal: an Execute after it must not
			// re-run the previous one.
			c.portal = nil
			_ = c.sendErr(fmt.Errorf("server: prepared statement %q does not exist", b.Name))
			_ = c.sendReady()
			return true
		}
		c.portal = &portal{name: b.Name, prep: prep, params: b.Params}
		_ = c.send(MsgBindOK, nil)
		return true

	case MsgExecute:
		p := c.portal
		if p == nil {
			_ = c.sendErr(errors.New("server: no portal bound"))
			_ = c.sendReady()
			return true
		}
		c.runStatement(func(ctx context.Context) (*core.Result, error) {
			return c.sess.ExecPrepared(ctx, p.prep, p.params...)
		})
		return true

	case MsgCloseStmt:
		m, err := DecodeCloseStmt(payload)
		if err != nil {
			return c.protoErr(err)
		}
		delete(c.prepared, m.Name)
		// Closing a statement closes the portal bound from it.
		if c.portal != nil && c.portal.name == m.Name {
			c.portal = nil
		}
		_ = c.send(MsgParseOK, nil)
		return true

	default:
		return c.protoErr(fmt.Errorf("server: unexpected frame type %q", typ))
	}
}

// protoErr reports a malformed frame and drops the connection (framing is
// no longer trustworthy). The error is written before the teardown runs.
func (c *conn) protoErr(err error) bool {
	_ = c.sendErr(fmt.Errorf("protocol error: %w", err))
	_ = c.flush()
	return false
}

// runStatement admits the statement to the worker pool, executes it under
// the connection context (plus the server statement timeout), and streams
// the result. Errors are sent as error frames; the session stays usable.
func (c *conn) runStatement(run func(context.Context) (*core.Result, error)) {
	s := c.srv
	// Admission to the bounded executor pool: fast path, else queue. The
	// slot is per-transaction — once held it stays held until the session
	// returns to idle, so a transaction that already owns locks can never
	// be starved of the pool by other sessions waiting on those locks.
	if !c.hasSlot {
		select {
		case s.workers <- struct{}{}:
		default:
			s.queued.Add(1)
			select {
			case s.workers <- struct{}{}:
			case <-c.cctx.Done():
				s.canceled.Add(1)
				return
			}
		}
		c.hasSlot = true
	}
	defer func() {
		if c.hasSlot && c.sess.TxnStatus() == 'I' {
			c.hasSlot = false
			<-s.workers
		}
	}()

	ctx := c.cctx
	if s.cfg.StmtTimeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, s.cfg.StmtTimeout)
		defer tcancel()
		ctx = tctx
	}
	c.inflight.Store(true)
	res, err := run(ctx)
	c.inflight.Store(false)
	s.statements.Add(1)
	if err != nil {
		if c.cctx.Err() != nil {
			// The connection died mid-statement; nobody is listening.
			s.canceled.Add(1)
			return
		}
		_ = c.sendErr(err)
		_ = c.sendReady()
		return
	}
	if err := c.sendResult(res); errors.Is(err, ErrFrameTooLarge) {
		// The oversized frame was cut back off the output buffer, so the
		// stream stays well-formed: the client gets an error in place of
		// the rest of the result, then Ready.
		_ = c.sendErr(fmt.Errorf("server: a result frame exceeds %d bytes: %w", MaxFrameLen, err))
	} else if err != nil {
		return // the socket failed; nobody is listening
	}
	_ = c.sendReady()
}

// sendResult sends a statement's row description, rows and completion.
func (c *conn) sendResult(res *core.Result) error {
	if len(res.Columns) > 0 {
		desc := &RowDesc{Cols: make([]ColDesc, len(res.Columns))}
		for i, name := range res.Columns {
			desc.Cols[i] = ColDesc{Name: name}
			if len(res.Rows) > 0 && i < len(res.Rows[0]) {
				desc.Cols[i].Kind = res.Rows[0][i].Kind()
			}
		}
		if err := c.send(MsgRowDesc, desc.Append); err != nil {
			return err
		}
		for _, row := range res.Rows {
			if err := c.send(MsgDataRow, (&DataRow{Row: row}).Append); err != nil {
				return err
			}
		}
	}
	return c.send(MsgComplete, (&Complete{Tag: res.Tag, RowsAffected: int64(res.RowsAffected)}).Append)
}
