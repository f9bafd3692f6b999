package server_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// TestClientErrorTaxonomy pins the classification table chaos harnesses
// depend on: which SQLSTATE codes are blindly retryable, which leave the
// statement's fate ambiguous, and how transport errors classify.
func TestClientErrorTaxonomy(t *testing.T) {
	cases := []struct {
		code      string
		retryable bool
		ambiguous bool
	}{
		{server.CodeRetryable, true, false},
		{server.CodeDeadlock, true, false},
		{server.CodeLostWrites, true, false},
		{server.CodeAmbiguous, false, true},
		{server.CodeCanceled, false, true},
		{server.CodeDiskFull, false, false},
		{server.CodeTxnAborted, false, false},
		{server.CodeInternal, false, false},
	}
	for _, tc := range cases {
		se := &client.ServerError{Message: "boom", Code: tc.code}
		if se.Retryable() != tc.retryable {
			t.Errorf("code %s: Retryable = %v, want %v", tc.code, se.Retryable(), tc.retryable)
		}
		if se.AmbiguousFate() != tc.ambiguous {
			t.Errorf("code %s: AmbiguousFate = %v, want %v", tc.code, se.AmbiguousFate(), tc.ambiguous)
		}
		if client.Retryable(se) != tc.retryable || client.AmbiguousFate(se) != tc.ambiguous {
			t.Errorf("code %s: package-level helpers disagree with methods", tc.code)
		}
		if !strings.Contains(se.Error(), "(SQLSTATE "+tc.code+")") {
			t.Errorf("code %s: Error() hides the code: %q", tc.code, se.Error())
		}
	}
	// A code-less error (old server) prints bare and classifies conservatively.
	bare := &client.ServerError{Message: "boom"}
	if bare.Error() != "boom" || bare.Retryable() || bare.AmbiguousFate() {
		t.Errorf("code-less error misclassified: %q %v %v", bare.Error(), bare.Retryable(), bare.AmbiguousFate())
	}
	// Transport errors: never blindly retryable, always ambiguous.
	plain := errors.New("read tcp: connection reset by peer")
	if client.Retryable(plain) {
		t.Error("transport error classified retryable")
	}
	if !client.AmbiguousFate(plain) {
		t.Error("transport error not classified ambiguous")
	}
	if client.AmbiguousFate(nil) {
		t.Error("nil error classified ambiguous")
	}
}

// TestWireRetryableDispatchCode arms a permanent pre-send dispatch fault
// and checks the failure crosses the wire as SQLSTATE 57P03: the server
// guarantees nothing executed, so the client may re-issue as-is.
func TestWireRetryableDispatchCode(t *testing.T) {
	e, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()
	ctx := context.Background()

	mustExecNet(t, c, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	mustExecNet(t, c, "FAULT INJECT 'dispatch_send' ACTION 'error'")
	_, err := c.Exec(ctx, "INSERT INTO t VALUES (1, 1)")
	e.Cluster().ResetFault("")
	if err == nil {
		t.Fatal("insert under permanent send fault succeeded")
	}
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want *ServerError, got %T: %v", err, err)
	}
	if se.Code != server.CodeRetryable {
		t.Fatalf("code = %q, want %q (%v)", se.Code, server.CodeRetryable, err)
	}
	if !client.Retryable(err) || client.AmbiguousFate(err) {
		t.Fatalf("pre-send failure misclassified: retryable=%v ambiguous=%v",
			client.Retryable(err), client.AmbiguousFate(err))
	}
	// Nothing executed: once the opened breaker cools down, the retry
	// lands cleanly on the same session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Exec(ctx, "INSERT INTO t VALUES (1, 1)"); err == nil {
			break
		} else if !client.Retryable(err) {
			t.Fatalf("retry failed non-retryably: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after fault reset")
		}
		time.Sleep(20 * time.Millisecond)
	}
	res := mustExecNet(t, c, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("count after retry: %v", res.Rows)
	}
}

// TestWireAmbiguousDispatchCode: a fault on the response path of a
// non-idempotent statement crosses the wire as SQLSTATE 58030 — the
// operation may have executed, so the client must reconcile, not retry.
func TestWireAmbiguousDispatchCode(t *testing.T) {
	e, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()
	ctx := context.Background()

	mustExecNet(t, c, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	mustExecNet(t, c, "FAULT INJECT 'dispatch_recv' ACTION 'error' COUNT 1")
	_, err := c.Exec(ctx, "INSERT INTO t VALUES (1, 1)")
	e.Cluster().ResetFault("")
	if err == nil {
		t.Fatal("insert under recv fault succeeded")
	}
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want *ServerError, got %T: %v", err, err)
	}
	if se.Code != server.CodeAmbiguous {
		t.Fatalf("code = %q, want %q (%v)", se.Code, server.CodeAmbiguous, err)
	}
	if client.Retryable(err) || !client.AmbiguousFate(err) {
		t.Fatalf("post-send failure misclassified: retryable=%v ambiguous=%v",
			client.Retryable(err), client.AmbiguousFate(err))
	}
	if !strings.Contains(err.Error(), "(SQLSTATE 58030)") {
		t.Fatalf("code missing from message: %v", err)
	}
	// Reconciliation is possible on the same session: the count tells the
	// truth about whether the ambiguous insert landed.
	res := mustExecNet(t, c, "SELECT count(*) FROM t")
	if n := res.Rows[0][0].Int(); n != 0 && n != 1 {
		t.Fatalf("reconciliation count: %d", n)
	}
}

// TestClientDeadlineClosesConnection: a deadline that expires while the
// server is still answering leaves that answer unread on the socket. The
// client must then be dead — every later call errors — rather than hand the
// stale frames to the next statement as its result.
func TestClientDeadlineClosesConnection(t *testing.T) {
	_, srv := startServer(t, 2, server.Config{})
	c := dialT(t, srv)
	defer c.Close()

	mustExecNet(t, c, "CREATE TABLE d (a int) DISTRIBUTED BY (a)")
	mustExecNet(t, c, "INSERT INTO d VALUES (1)")
	mustExecNet(t, c, "FAULT INJECT 'dispatch_send' ACTION 'sleep' SLEEP 300 SEGMENT -1 COUNT 1")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Exec(ctx, "SELECT 111 FROM d")
	var se *client.ServerError
	if err == nil || errors.As(err, &se) {
		t.Fatalf("statement past its deadline: err = %v, want a transport error", err)
	}
	// A client that kept the socket would read the late response to the
	// statement above as this one's.
	if res, err := c.Exec(context.Background(), "SELECT 222 FROM d"); err == nil {
		t.Fatalf("the connection outlived a transport error and answered %v", res.Rows)
	}
}
