package server_test

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/types"
)

// fuzzSrv is one server shared by every FuzzServerSession iteration —
// booting a cluster per input would make fuzzing useless. Guarded by a
// Once so `go test -fuzz` worker processes each boot exactly one.
var (
	fuzzOnce sync.Once
	fuzzAddr string
	fuzzEng  *core.Engine
)

func fuzzServer() string {
	fuzzOnce.Do(func() {
		cfg := cluster.GPDB6(2)
		fuzzEng = core.NewEngine(cfg)
		srv := server.New(fuzzEng, server.Config{})
		if err := srv.Start(); err != nil {
			panic(err)
		}
		fuzzAddr = srv.Addr()
	})
	return fuzzAddr
}

// frames builds a raw byte stream of frames for seeding.
func frames(parts ...[]byte) []byte {
	var buf bytes.Buffer
	for i := 0; i+1 < len(parts); i += 2 {
		_ = writeFrame(&buf, parts[i][0], parts[i+1])
	}
	return buf.Bytes()
}

// FuzzServerSession throws arbitrary byte streams at a live TCP session:
// whatever arrives — truncated handshakes, corrupt frames, hostile length
// prefixes, valid traffic with garbage appended — the server must never
// panic, never leak the session, and must keep serving well-formed clients.
func FuzzServerSession(f *testing.F) {
	startup := (&server.Startup{Version: server.ProtocolVersion, Role: ""}).Append(nil)
	query := (&server.Query{SQL: "SELECT 1"}).Append(nil)
	ddl := (&server.Query{SQL: "CREATE TABLE fz (a int) DISTRIBUTED BY (a)"}).Append(nil)
	param := (&server.Query{SQL: "SELECT $1", Params: []types.Datum{types.NewInt(1)}}).Append(nil)

	// Captured-handshake seeds: full valid exchanges, then mutations.
	f.Add(frames([]byte{server.MsgStartup}, startup, []byte{server.MsgQuery}, query, []byte{server.MsgTerminate}, nil))
	f.Add(frames([]byte{server.MsgStartup}, startup, []byte{server.MsgQuery}, ddl))
	f.Add(frames([]byte{server.MsgStartup}, startup, []byte{server.MsgQuery}, param))
	f.Add(frames([]byte{server.MsgStartup}, startup)[:3]) // truncated mid-header
	f.Add([]byte{server.MsgStartup, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n")) // wrong protocol entirely
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		addr := fuzzServer()
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		_, _ = nc.Write(raw)
		// Half-close the write side where supported so the server sees EOF,
		// then drain whatever it answers until it hangs up.
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		_, _ = io.Copy(io.Discard, nc)
		_ = nc.Close()

		// The server must still be alive and correct for a real client.
		probe, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("server unreachable after fuzz input %x: %v", raw, err)
		}
		defer probe.Close()
		_ = probe.SetDeadline(time.Now().Add(5 * time.Second))
		st := &server.Startup{Version: server.ProtocolVersion, Role: ""}
		if err := writeFrame(probe, server.MsgStartup, st.Append(nil)); err != nil {
			t.Fatalf("probe startup: %v", err)
		}
		typ, _, err := server.ReadFrame(probe)
		if err != nil || typ != server.MsgAuthOK {
			t.Fatalf("probe handshake broken after %x: typ=%q err=%v", raw, typ, err)
		}
	})
}
