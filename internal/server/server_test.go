package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/workload"
)

// startServer boots an engine plus a listening server on a loopback port.
func startServer(t testing.TB, nseg int, cfg server.Config) (*core.Engine, *server.Server) {
	t.Helper()
	ccfg := cluster.GPDB6(nseg)
	ccfg.GDDPeriod = 5 * time.Millisecond
	e := core.NewEngine(ccfg)
	t.Cleanup(e.Close)
	srv := server.New(e, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return e, srv
}

func dialT(t testing.TB, srv *server.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr(), "")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return c
}

func mustExecNet(t testing.TB, c *client.Client, sqlText string, params ...types.Datum) *client.Result {
	t.Helper()
	res, err := c.Exec(context.Background(), sqlText, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sqlText, err)
	}
	return res
}

func TestNetworkBasicFlow(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()
	ctx := context.Background()

	mustExecNet(t, c, "CREATE TABLE t (a int, b text, c float, d bool, e date) DISTRIBUTED BY (a)")
	res := mustExecNet(t, c, "INSERT INTO t VALUES (1, 'one', 1.5, true, '2021-06-15'), (2, 'two', -2.25, false, '1999-12-31')")
	if res.RowsAffected != 2 || !strings.HasPrefix(res.Tag, "INSERT") {
		t.Fatalf("insert: tag=%q affected=%d", res.Tag, res.RowsAffected)
	}
	res = mustExecNet(t, c, "SELECT a, b, c, d, e FROM t ORDER BY a")
	if len(res.Rows) != 2 || len(res.Columns) != 5 {
		t.Fatalf("select: %d rows %d cols", len(res.Rows), len(res.Columns))
	}
	if res.Rows[0][1].String() != "one" || res.Rows[1][2].Float() != -2.25 {
		t.Fatalf("bad row values: %v", res.Rows)
	}
	if res.Rows[0][4].Kind() != types.KindDate || res.Rows[0][4].String() != "2021-06-15" {
		t.Fatalf("date did not survive the wire: %v (%v)", res.Rows[0][4], res.Rows[0][4].Kind())
	}
	if res.TxnStatus != 'I' {
		t.Fatalf("status %q, want I", res.TxnStatus)
	}

	// Parameters through the simple-query path.
	res = mustExecNet(t, c, "SELECT b FROM t WHERE a = $1", types.NewInt(2))
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "two" {
		t.Fatalf("param query: %v", res.Rows)
	}

	// A statement error comes back as *ServerError and the session survives.
	_, err := c.Exec(ctx, "SELECT nope FROM t")
	if err == nil {
		t.Fatal("bad column accepted")
	}
	if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("want *ServerError, got %T: %v", err, err)
	}
	res = mustExecNet(t, c, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("session unusable after error: %v", res.Rows)
	}
}

func TestNetworkTxnStatusAndRollback(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()
	ctx := context.Background()

	mustExecNet(t, c, "CREATE TABLE acc (id int, v int) DISTRIBUTED BY (id)")
	mustExecNet(t, c, "INSERT INTO acc VALUES (1, 100)")

	if res := mustExecNet(t, c, "BEGIN"); res.TxnStatus != 'T' {
		t.Fatalf("after BEGIN: %q", res.TxnStatus)
	}
	mustExecNet(t, c, "UPDATE acc SET v = 0 WHERE id = 1")
	// An error inside the block fails the transaction...
	if _, err := c.Exec(ctx, "SELECT broken FROM acc"); err == nil {
		t.Fatal("expected error")
	}
	// ...and the failure is sticky until ROLLBACK.
	_, err := c.Exec(ctx, "SELECT v FROM acc")
	if err == nil || !strings.Contains(err.Error(), "abort") {
		t.Fatalf("statement in failed txn: %v", err)
	}
	if res := mustExecNet(t, c, "ROLLBACK"); res.TxnStatus != 'I' {
		t.Fatalf("after ROLLBACK: %q", res.TxnStatus)
	}
	if res := mustExecNet(t, c, "SELECT v FROM acc WHERE id = 1"); res.Rows[0][0].Int() != 100 {
		t.Fatalf("update not rolled back: %v", res.Rows)
	}
}

// TestNetworkTPCBStatementCacheHits: TPC-B transactions sent over one socket
// through the simple-query protocol repeat a handful of statement texts, so
// after the first transaction nearly every statement must be served from the
// engine's statement cache rather than the parser.
func TestNetworkTPCBStatementCacheHits(t *testing.T) {
	e, srv := startServer(t, 2, server.Config{})
	ctx := context.Background()
	w := &workload.TPCB{Branches: 2, AccountsPerBranch: 50}
	loader, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, coreConn{loader}); err != nil {
		t.Fatal(err)
	}
	loader.Close()

	c := dialT(t, srv)
	defer c.Close()
	conn, r := client.WorkloadConn{C: c}, workload.NewRand(7)
	before := e.Metrics().Snapshot()
	for i := 0; i < 200; i++ {
		if err := w.Transaction(ctx, conn, r); err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
	}
	d := e.Metrics().Snapshot().Delta(before)
	hits, misses := d["plancache.hits"], d["plancache.misses"]
	if hits+misses == 0 {
		t.Fatal("no statement-cache lookups over the wire")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("statement-cache hit rate %.3f over 200 TPC-B transactions (hits %d, misses %d), want >= 0.9",
			rate, hits, misses)
	}
}

// TestNetworkMatchesInProcess is the byte-identity satellite: the same
// query through the wire and through an embedded session must produce
// identical results, across storage engines.
func TestNetworkMatchesInProcess(t *testing.T) {
	e, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()
	ctx := context.Background()

	local, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}

	storages := []struct{ name, with string }{
		{"heap", ""},
		{"aorow", " WITH (appendonly=true)"},
		{"aocol", " WITH (appendonly=true, orientation=column)"},
	}
	for _, st := range storages {
		tbl := "m_" + st.name
		mustExecNet(t, c, fmt.Sprintf(
			"CREATE TABLE %s (a int, b text, c float, d bool, e date) DISTRIBUTED BY (a)%s", tbl, st.with))
		for i := 0; i < 40; i++ {
			mustExecNet(t, c, fmt.Sprintf(
				"INSERT INTO %s VALUES (%d, 'r%d', %d.25, %t, '2020-01-01')", tbl, i, i%7, i, i%3 == 0))
		}
	}
	queries := []string{
		"SELECT a, b, c, d, e FROM %s ORDER BY a",
		"SELECT b, count(*), sum(c) FROM %s GROUP BY b ORDER BY b",
		"SELECT count(*) FROM %s WHERE d = true",
		"SELECT a, c FROM %s WHERE a >= 10 AND a < 30 ORDER BY c DESC, a",
	}
	for _, st := range storages {
		for _, q := range queries {
			q := fmt.Sprintf(q, "m_"+st.name)
			netRes, err := c.Exec(ctx, q)
			if err != nil {
				t.Fatalf("[%s] net %q: %v", st.name, q, err)
			}
			locRes, err := local.Exec(ctx, q)
			if err != nil {
				t.Fatalf("[%s] local %q: %v", st.name, q, err)
			}
			if len(netRes.Rows) != len(locRes.Rows) {
				t.Fatalf("[%s] %q: %d rows over wire, %d in-process",
					st.name, q, len(netRes.Rows), len(locRes.Rows))
			}
			for i := range locRes.Rows {
				if fmt.Sprint(netRes.Rows[i]) != fmt.Sprint(locRes.Rows[i]) {
					t.Fatalf("[%s] %q row %d: wire %v != local %v",
						st.name, q, i, netRes.Rows[i], locRes.Rows[i])
				}
				for j := range locRes.Rows[i] {
					if netRes.Rows[i][j].Kind() != locRes.Rows[i][j].Kind() {
						t.Fatalf("[%s] %q row %d col %d: kind %v != %v",
							st.name, q, i, j, netRes.Rows[i][j].Kind(), locRes.Rows[i][j].Kind())
					}
				}
			}
		}
	}
}

// TestAbruptCloseReleasesResources is the teardown-fix satellite: killing a
// socket mid-transaction must roll the transaction back (locks released)
// and free the resource-group admission slot.
func TestAbruptCloseReleasesResources(t *testing.T) {
	e, srv := startServer(t, 2, server.Config{UseResourceGroups: true})
	admin := dialT(t, srv)
	defer admin.Close()
	ctx := context.Background()

	mustExecNet(t, admin, "CREATE TABLE r (id int, v int) DISTRIBUTED BY (id)")
	mustExecNet(t, admin, "INSERT INTO r VALUES (1, 10)")

	victim := dialT(t, srv)
	mustExecNet(t, victim, "BEGIN")
	mustExecNet(t, victim, "UPDATE r SET v = 99 WHERE id = 1") // row lock held

	// Sessions connecting with an empty role run as gpadmin → admin_group.
	g, ok := e.Cluster().Groups().Group("admin_group")
	if !ok {
		t.Fatal("admin_group missing")
	}
	if g.InUse() == 0 {
		t.Fatal("victim holds no admission slot — test is vacuous")
	}

	// Abrupt close: no terminate frame, socket just dies.
	_ = victim.Kill()

	// The server must notice, roll back, and release slot + session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// admin still holds its own slot between transactions? No: slots are
		// released at txn end, so all slots must drain.
		if srv.SessionCount() == 1 && g.InUse() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("teardown leak: sessions=%d slots=%d", srv.SessionCount(), g.InUse())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The victim's row lock must be gone: this update completes quickly.
	uctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := admin.Exec(uctx, "UPDATE r SET v = 11 WHERE id = 1"); err != nil {
		t.Fatalf("lock leaked past teardown: %v", err)
	}
	res := mustExecNet(t, admin, "SELECT v FROM r WHERE id = 1")
	if res.Rows[0][0].Int() != 11 {
		t.Fatalf("uncommitted update leaked: %v", res.Rows)
	}
}

func TestGracefulDrain(t *testing.T) {
	e, srv := startServer(t, 2, server.Config{DrainTimeout: 2 * time.Second})
	c := dialT(t, srv)
	mustExecNet(t, c, "CREATE TABLE d (a int) DISTRIBUTED BY (a)")
	mustExecNet(t, c, "INSERT INTO d VALUES (1)")

	idle := dialT(t, srv)
	_ = idle

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived drain", n)
	}
	// New connections are refused after drain.
	if _, err := client.DialTimeout(srv.Addr(), "", time.Second); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// The engine survives a server drain: acknowledged data is durable and
	// queryable in-process (FlushWAL ran).
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(context.Background(), "SELECT count(*) FROM d")
	if err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("post-drain engine state: %v %v", res, err)
	}
}

func TestServerRejectsGarbageStartup(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{})
	// Raw TCP, no valid startup: server must answer with an error frame and
	// close, not hang or crash.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := server.WriteFrame(nc, server.MsgQuery, (&server.Query{SQL: "SELECT 1"}).Encode()); err != nil {
		t.Fatal(err)
	}
	typ, _, err := server.ReadFrame(nc)
	if err != nil || typ != server.MsgError {
		t.Fatalf("want error frame, got %q err=%v", typ, err)
	}
	// Wrong protocol version is refused too.
	nc2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	bad := &server.Startup{Version: 999, Role: ""}
	if err := server.WriteFrame(nc2, server.MsgStartup, bad.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, _, err = server.ReadFrame(nc2)
	if err != nil || typ != server.MsgError {
		t.Fatalf("bad version: want error frame, got %q err=%v", typ, err)
	}
}

func TestMaxConnsRefusesExcess(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{MaxConns: 2})
	c1 := dialT(t, srv)
	defer c1.Close()
	c2 := dialT(t, srv)
	defer c2.Close()
	if _, err := client.DialTimeout(srv.Addr(), "", 2*time.Second); err == nil {
		t.Fatal("third connection admitted past MaxConns=2")
	} else if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("want ServerError refusal, got %T: %v", err, err)
	}
	// Stats reflect the refusal.
	if st := srv.Stats(); st.Rejected == 0 || st.Accepted != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Freeing a slot lets a new client in.
	_ = c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.DialTimeout(srv.Addr(), "", time.Second)
		if err == nil {
			defer c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not reclaimed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatementTimeoutOverWire(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()
	mustExecNet(t, c, "CREATE TABLE st (a int, b int) DISTRIBUTED BY (a)")
	mustExecNet(t, c, "INSERT INTO st VALUES (1, 0)")
	mustExecNet(t, c, "SET statement_timeout = 1")
	// pg_sleep doesn't exist here; a cross join of the table with itself via
	// repeated self-joins is also unavailable. Instead rely on lock waits: a
	// second session holds the row, so our UPDATE must time out at ~1ms.
	holder := dialT(t, srv)
	defer holder.Close()
	mustExecNet(t, holder, "BEGIN")
	mustExecNet(t, holder, "UPDATE st SET b = 2 WHERE a = 1")
	_, err := c.Exec(context.Background(), "UPDATE st SET b = 3 WHERE a = 1")
	if err == nil {
		t.Fatal("statement_timeout did not fire")
	}
	if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("timeout must be a server error (session survives), got %T", err)
	}
	mustExecNet(t, holder, "ROLLBACK")
	mustExecNet(t, c, "SET statement_timeout = 0")
	mustExecNet(t, c, "SELECT count(*) FROM st")
}

// TestRetiredFramesRefused: the frame bytes of the retired extended protocol
// (Parse, Bind, Execute, CloseStmt) are frames the server does not know. Each
// gets an Error naming the unexpected frame type and the server hangs up;
// parameters travel in a Query, on a connection of their own.
func TestRetiredFramesRefused(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{})
	// roundTrip sends one frame and reads the reply until its Ready or until
	// the server hangs up, returning the text of any Error in it and whether
	// the connection was closed.
	roundTrip := func(nc net.Conn, typ byte, payload []byte) (errText string, closed bool) {
		t.Helper()
		if err := server.WriteFrame(nc, typ, payload); err != nil {
			t.Fatal(err)
		}
		for {
			rt, p, err := server.ReadFrame(nc)
			if errors.Is(err, io.EOF) {
				return errText, true
			}
			if err != nil {
				t.Fatalf("reply to %q: %v", typ, err)
			}
			switch rt {
			case server.MsgError:
				em, err := server.DecodeErrorMsg(p)
				if err != nil {
					t.Fatal(err)
				}
				errText = em.Message
			case server.MsgReady:
				return errText, false
			}
		}
	}
	startup := (&server.Startup{Version: server.ProtocolVersion}).Encode()
	for _, typ := range []byte{'P', 'B', 'E', 'C'} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		if errText, closed := roundTrip(nc, server.MsgStartup, startup); errText != "" || closed {
			t.Fatalf("startup: error %q, closed %v", errText, closed)
		}
		errText, closed := roundTrip(nc, typ, (&server.Query{SQL: "SELECT 1"}).Encode())
		if !strings.Contains(errText, "unexpected frame type") || !closed {
			t.Errorf("frame %q: error %q, closed %v; want an unexpected-frame error and a hangup", typ, errText, closed)
		}
		_ = nc.Close()
	}
	c := dialT(t, srv)
	defer c.Close()
	if res := mustExecNet(t, c, "SELECT $1", types.NewInt(42)); len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("SELECT $1 with 42: %v", res.Rows)
	}
}

// TestOversizedRowGetsError: a result row too large for one frame ends the
// statement with an Error and Ready well before the client's deadline, and
// the connection goes on to run the next statement.
func TestOversizedRowGetsError(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()
	half := types.NewText(strings.Repeat("x", 9<<20)) // doubled, past MaxFrameLen
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Exec(ctx, "SELECT $1 || $1", half)
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Message, "exceeds") {
		t.Fatalf("oversized row: err = %v, want a server error naming the frame limit", err)
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Fatalf("the error took %v: the client waited on its deadline", waited)
	}
	if res := mustExecNet(t, c, "SELECT 1"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("next statement on the connection: %v", res.Rows)
	}
}
