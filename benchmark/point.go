package main

import (
	"context"
	"fmt"
	"strings"
)

// point is the autocommit single-row mix on one indexed heap table: every
// statement names its row by the distribution key, so it is dispatched to
// one segment and, when it writes, commits in one phase.
type point struct {
	rows int
	seed uint64
	rnd  []*rng
	// Acknowledged effects, per client: rows inserted, the sum of their
	// values, and the sum of the update deltas.
	inserted    []int64
	insertedSum []int64
	updatedSum  []int64
}

const (
	pointSelect uint8 = iota
	pointUpdate
	pointInsert
)

const pointRows = 500000

func newPoint(seed uint64, scale int) workload {
	w := &point{rows: scaled(pointRows, scale, 1000), seed: seed}
	for id := 0; id < 2; id++ {
		w.rnd = append(w.rnd, fork(seed, uint64(id)))
	}
	w.inserted = make([]int64, len(w.rnd))
	w.insertedSum = make([]int64, len(w.rnd))
	w.updatedSum = make([]int64, len(w.rnd))
	return w
}

const pointSchema = `
CREATE TABLE kv (id int, val int, pad text) DISTRIBUTED BY (id);
CREATE INDEX kv_pkey ON kv (id)`

// loadedVal is row id's value at load time.
func (w *point) loadedVal(id int) int { return int(fork(w.seed, uint64(id)+1000).next() % 1000) }

func (w *point) load(ctx context.Context, c conn) error {
	if err := script(ctx, c, pointSchema); err != nil {
		return err
	}
	if err := bulkInsert(ctx, c, "kv", w.rows, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d,%d,'pad')", i+1, w.loadedVal(i+1))
	}); err != nil {
		return err
	}
	_, err := c.exec(ctx, "ANALYZE")
	return err
}

const (
	pointSel = "SELECT val FROM kv WHERE id = $1"
	pointUpd = "UPDATE kv SET val = val + $1 WHERE id = $2"
	pointIns = "INSERT INTO kv VALUES ($1, $2, 'pad')"
)

// op draws 70% SELECT, 15% UPDATE, 15% INSERT with uniform keys over the
// loaded rows; inserted keys are fresh and disjoint between clients. (An even
// read/write split would put the median latency in the gap between the read
// and the write distributions, where it wanders; at 70% it sits inside the
// reads; the traced pass reports each kind's median as
// core.point_{select,update,insert}_us_p50.)
func (w *point) op(ctx context.Context, c conn, id int) (uint8, error) {
	r := w.rnd[id]
	switch draw := r.intn(100); {
	case draw < 70:
		key := r.between(1, w.rows)
		rows, err := c.exec(ctx, pointSel, ints(key)...)
		if err == nil && len(rows) != 1 {
			err = fmt.Errorf("point: key %d read %d rows", key, len(rows))
		}
		return pointSelect, err
	case draw < 85:
		key, delta := r.between(1, w.rows), r.between(1, 100)
		if _, err := c.exec(ctx, pointUpd, ints(delta, key)...); err != nil {
			return pointUpdate, err
		}
		w.updatedSum[id] += int64(delta)
		return pointUpdate, nil
	default:
		key := w.rows + 1 + int(w.inserted[id])*len(w.rnd) + id
		val := r.intn(1000)
		if _, err := c.exec(ctx, pointIns, ints(key, val)...); err != nil {
			return pointInsert, err
		}
		w.inserted[id]++
		w.insertedSum[id] += int64(val)
		return pointInsert, nil
	}
}

// check: the row count is the load plus the acknowledged inserts, and the
// value column sums to the load plus the acknowledged inserts and updates.
func (w *point) check(ctx context.Context, h *host) error {
	wantRows, wantSum := int64(w.rows), int64(0)
	for i := 1; i <= w.rows; i++ {
		wantSum += int64(w.loadedVal(i))
	}
	for id := range w.rnd {
		wantRows += w.inserted[id]
		wantSum += w.insertedSum[id] + w.updatedSum[id]
	}
	c, err := h.session()
	if err != nil {
		return err
	}
	defer c.close()
	rows, err := scalar(ctx, c, "SELECT count(*) FROM kv")
	if err != nil {
		return err
	}
	sum, err := scalar(ctx, c, "SELECT sum(val) FROM kv")
	if err != nil {
		return err
	}
	if gotRows, gotSum := rows.Int(), sum.Int(); gotRows != wantRows || gotSum != wantSum {
		return fmt.Errorf("point: kv has %d rows summing to %d, acknowledged writes give %d rows summing to %d",
			gotRows, gotSum, wantRows, wantSum)
	}
	return nil
}

func (w *point) statements() []statement {
	return []statement{
		{pointSel, ints(1), 0.70},
		{pointUpd, ints(1, 1), 0.15},
		{pointIns, ints(1, 1), 0.15},
	}
}
