package server_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// writeCounter counts the Write calls made on the connections it wraps and
// keeps the largest one since the last reset.
type writeCounter struct{ writes, largest atomic.Int64 }

type countedConn struct {
	net.Conn
	w *writeCounter
}

func (c countedConn) Write(b []byte) (int, error) {
	// Counted before the bytes go out, so a peer that has read them sees
	// the count.
	c.w.writes.Add(1)
	for n := int64(len(b)); ; {
		m := c.w.largest.Load()
		if n <= m || c.w.largest.CompareAndSwap(m, n) {
			break
		}
	}
	return c.Conn.Write(b)
}

type countingListener struct {
	net.Listener
	w *writeCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{nc, l.w}, nil
}

// TestOneWritePerResponse counts the socket writes on both ends of a
// connection: the server writes each response with one Write (a large
// result in pieces of at most the flush threshold plus one frame), and the
// client writes each request frame with one.
func TestOneWritePerResponse(t *testing.T) {
	e := core.NewEngine(cluster.GPDB6(2))
	t.Cleanup(e.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var srvW, cliW writeCounter
	srv := server.New(e, server.Config{})
	if err := srv.Serve(countingListener{ln, &srvW}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Handshake(countedConn{nc, &cliW}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// writes runs f and returns the server's and the client's Write calls
	// during it.
	writes := func(f func()) (srv, cli int64) {
		s0, c0 := srvW.writes.Load(), cliW.writes.Load()
		srvW.largest.Store(0)
		f()
		return srvW.writes.Load() - s0, cliW.writes.Load() - c0
	}
	ctx := context.Background()
	expect := func(what string, wantSrv, wantCli int64, f func()) {
		t.Helper()
		if s, cl := writes(f); s != wantSrv || cl != wantCli {
			t.Errorf("%s: server %d writes, client %d; want %d and %d", what, s, cl, wantSrv, wantCli)
		}
	}
	if got := srvW.writes.Load(); got != 1 {
		t.Errorf("handshake (AuthOK, Ready): %d server writes, want 1", got)
	}

	expect("DDL", 1, 1, func() { mustExecNet(t, c, "CREATE TABLE w (a int, b text) DISTRIBUTED BY (a)") })
	var values strings.Builder
	for i := range 100 {
		if i > 0 {
			values.WriteString(", ")
		}
		fmt.Fprintf(&values, "(%d, 'row')", i%10)
	}
	expect("INSERT of 100 rows", 1, 1, func() { mustExecNet(t, c, "INSERT INTO w VALUES "+values.String()) })
	expect("SELECT of 100 rows", 1, 1, func() {
		if res := mustExecNet(t, c, "SELECT a, b FROM w"); len(res.Rows) != 100 {
			t.Fatalf("SELECT returned %d rows, want 100", len(res.Rows))
		}
	})
	expect("statement error (Error, Ready)", 1, 1, func() {
		if _, err := c.Exec(ctx, "SELECT nope FROM w"); err == nil {
			t.Fatal("bad column accepted")
		}
	})
	// A result past the flush threshold streams: several writes, none
	// longer than the threshold plus the frame that crossed it.
	text := strings.Repeat("x", 1000)
	mustExecNet(t, c, "CREATE TABLE big (a int, b text) DISTRIBUTED BY (a)")
	const rows = 100
	for i := range rows {
		mustExecNet(t, c, "INSERT INTO big VALUES ($1, $2)", types.NewInt(int64(i)), types.NewText(text))
	}
	frame := 5 + len((&server.DataRow{Row: types.Row{types.NewInt(rows), types.NewText(text)}}).Append(nil))
	if rows*frame < 2*server.FlushThreshold {
		t.Fatalf("result of %d bytes does not pass the flush threshold twice", rows*frame)
	}
	s, cl := writes(func() {
		if res := mustExecNet(t, c, "SELECT a, b FROM big"); len(res.Rows) != rows {
			t.Fatalf("SELECT returned %d rows, want %d", len(res.Rows), rows)
		}
	})
	if s < 2 || cl != 1 {
		t.Errorf("large result: server %d writes, client %d; want several and 1", s, cl)
	}
	if max := srvW.largest.Load(); max > server.FlushThreshold-1+int64(frame) {
		t.Errorf("large result: a write of %d bytes, past the threshold %d plus one %d-byte frame",
			max, server.FlushThreshold, frame)
	}
}
