package main

import (
	"context"
	"fmt"
	"strings"

	greenplum "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// conn is the statement surface the loaders and load generators drive: an
// in-process session or a wire-protocol connection.
type conn interface {
	exec(ctx context.Context, q string, args ...types.Datum) ([]types.Row, error)
	close()
}

type sessionConn struct{ s *core.Session }

func (c sessionConn) exec(ctx context.Context, q string, args ...types.Datum) ([]types.Row, error) {
	res, err := c.s.Exec(ctx, q, args...)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (c sessionConn) close() { c.s.Close() }

type wireConn struct{ c *client.Client }

func (c wireConn) exec(ctx context.Context, q string, args ...types.Datum) ([]types.Row, error) {
	res, err := c.c.Exec(ctx, q, args...)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (c wireConn) close() { _ = c.c.Close() }

// host is one booted engine: 4 segments, the GPDB6 preset (GDD, one-phase
// commit, direct dispatch, WAL on), no mirrors, and every simulated delay
// (NetDelay, FsyncDelay, SegmentStmtCPU) left at zero so the numbers are the
// engine's own CPU cost. The TCP server is started on first dial.
type host struct {
	db  *greenplum.DB
	eng *core.Engine
	srv *server.Server
}

const segments = 4

func boot() (*host, error) {
	db, err := greenplum.Open(greenplum.Options{Segments: segments})
	if err != nil {
		return nil, err
	}
	return &host{db: db, eng: db.Engine()}, nil
}

func (h *host) session() (conn, error) {
	s, err := h.eng.NewSession("")
	if err != nil {
		return nil, err
	}
	return sessionConn{s}, nil
}

func (h *host) dial() (conn, error) {
	if h.srv == nil {
		srv := server.New(h.eng, server.Config{Addr: "127.0.0.1:0"})
		if err := srv.Start(); err != nil {
			return nil, err
		}
		h.srv = srv
	}
	c, err := client.Dial(h.srv.Addr(), "")
	if err != nil {
		return nil, err
	}
	return wireConn{c}, nil
}

func (h *host) close() {
	if h.srv != nil {
		_ = h.srv.Shutdown(context.Background())
	}
	h.db.Close()
}

// script runs semicolon-separated DDL.
func script(ctx context.Context, c conn, ddl string) error {
	for _, q := range strings.Split(ddl, ";") {
		if q = strings.TrimSpace(q); q == "" {
			continue
		}
		if _, err := c.exec(ctx, q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// loadBatch is the rows-per-INSERT of every bulk load.
const loadBatch = 1000

// bulkInsert loads n rows into table with multi-row INSERT statements of
// loadBatch rows each; row(i) renders the i-th VALUES tuple.
func bulkInsert(ctx context.Context, c conn, table string, n int, row func(sb *strings.Builder, i int)) error {
	var sb strings.Builder
	for lo := 0; lo < n; lo += loadBatch {
		sb.Reset()
		sb.WriteString("INSERT INTO ")
		sb.WriteString(table)
		sb.WriteString(" VALUES ")
		for i := lo; i < n && i < lo+loadBatch; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			row(&sb, i)
		}
		if _, err := c.exec(ctx, sb.String()); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// scalar runs a query that returns exactly one value. Callers read it with
// Int or Float, both of which read 0 from a NULL (an aggregate over no rows).
func scalar(ctx context.Context, c conn, q string) (types.Datum, error) {
	rows, err := c.exec(ctx, q)
	if err != nil {
		return types.Null, fmt.Errorf("%s: %w", q, err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return types.Null, fmt.Errorf("%s: want one value, got %d rows", q, len(rows))
	}
	return rows[0][0], nil
}
