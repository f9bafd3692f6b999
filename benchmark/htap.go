package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/types"
)

// htap is the CH-benCHmark hybrid: TPC-C style NewOrder and Payment
// transactions on a fixed schedule, and a suite of TPC-H flavoured queries
// cycling over the same heap tables.
type htap struct {
	warehouses, items, customers, seedOrders int
	seed                                     uint64
	rnd                                      *rng // the transactional stream's
	next                                     int  // position in the query cycle
	orderSeq                                 int64
	// Acknowledged effects of the transactional stream.
	newOrders int64
	payments  float64
}

const (
	// Tables are distributed by warehouse id; 32 warehouses spread over the 4
	// segments far more evenly than 8 do (8 happen to hash 5/3/0/0).
	chWarehouses = 32
	chItems      = 1000
	chCustomers  = 30 // per district
	chSeedOrders = 75 // per district
	chLines      = 5  // order lines per order
	// chTraceTxns is how many transactions the traced pass runs after each
	// analytic query (it has one client, so the two streams interleave).
	chTraceTxns = 10
)

func newHTAP(seed uint64, scale int) workload {
	return &htap{
		warehouses: chWarehouses,
		items:      scaled(chItems, scale, 100),
		customers:  chCustomers,
		seedOrders: scaled(chSeedOrders, scale, 2),
		seed:       seed,
		rnd:        fork(seed, 0),
	}
}

// The transaction-heavy tables are heap; item is replicated so item joins
// need no motion; history is append-only.
const chSchema = `
CREATE TABLE warehouse (w_id int, w_name text, w_ytd float) DISTRIBUTED BY (w_id);
CREATE TABLE district (d_w_id int, d_id int, d_name text, d_ytd float, d_next_o_id int) DISTRIBUTED BY (d_w_id);
CREATE TABLE customer (c_w_id int, c_d_id int, c_id int, c_name text, c_balance float, c_ytd_payment float, c_payment_cnt int) DISTRIBUTED BY (c_w_id);
CREATE TABLE item (i_id int, i_name text, i_price float) DISTRIBUTED REPLICATED;
CREATE TABLE stock (s_w_id int, s_i_id int, s_quantity int, s_ytd int) DISTRIBUTED BY (s_w_id);
CREATE TABLE orders (o_w_id int, o_d_id int, o_id int, o_c_id int, o_carrier_id int, o_ol_cnt int, o_entry_d int) DISTRIBUTED BY (o_w_id);
CREATE TABLE order_line (ol_w_id int, ol_d_id int, ol_o_id int, ol_number int, ol_i_id int, ol_quantity int, ol_amount float, ol_delivery_d int) DISTRIBUTED BY (ol_w_id);
CREATE TABLE ch_history (h_c_w_id int, h_c_d_id int, h_c_id int, h_amount float, h_date int) WITH (appendonly=true) DISTRIBUTED BY (h_c_w_id);
CREATE INDEX district_pkey ON district (d_w_id, d_id);
CREATE INDEX customer_pkey ON customer (c_w_id, c_d_id, c_id);
CREATE INDEX stock_pkey ON stock (s_w_id, s_i_id);
CREATE INDEX warehouse_pkey ON warehouse (w_id)`

// order is one generated order: seeded at load, or written by NewOrder.
type order struct {
	w, d, id, customer, carrier, day int
	lines                            [chLines]struct{ item, qty int }
}

func (w *htap) genOrder(r *rng, wid, did int) order {
	w.orderSeq++
	o := order{w: wid, d: did, id: int(w.orderSeq), customer: r.between(1, w.customers), carrier: r.intn(10), day: r.intn(365)}
	for i := range o.lines {
		o.lines[i].item = r.between(1, w.items)
		o.lines[i].qty = r.between(1, 10)
	}
	return o
}

func lineAmount(item, qty int) float64 { return float64(qty) * float64(1+item%100) }

func (w *htap) load(ctx context.Context, c conn) error {
	if err := script(ctx, c, chSchema); err != nil {
		return err
	}
	W := w.warehouses
	steps := []struct {
		table string
		n     int
		row   func(sb *strings.Builder, i int)
	}{
		{"item", w.items, func(sb *strings.Builder, i int) {
			fmt.Fprintf(sb, "(%d,'item-%d',%d.75)", i+1, i+1, 1+i%100)
		}},
		{"warehouse", W, func(sb *strings.Builder, i int) {
			fmt.Fprintf(sb, "(%d,'w%d',0.0)", i+1, i+1)
		}},
		{"district", W * 10, func(sb *strings.Builder, i int) {
			fmt.Fprintf(sb, "(%d,%d,'d%d',0.0,1)", i/10+1, i%10+1, i%10+1)
		}},
		{"customer", W * 10 * w.customers, func(sb *strings.Builder, i int) {
			wid, d, cid := i/(10*w.customers)+1, i/w.customers%10+1, i%w.customers+1
			fmt.Fprintf(sb, "(%d,%d,%d,'cust-%d-%d-%d',0.0,0.0,0)", wid, d, cid, wid, d, cid)
		}},
		{"stock", W * w.items, func(sb *strings.Builder, i int) {
			fmt.Fprintf(sb, "(%d,%d,%d,0)", i/w.items+1, i%w.items+1, 50+i%50)
		}},
	}
	for _, s := range steps {
		if err := bulkInsert(ctx, c, s.table, s.n, s.row); err != nil {
			return err
		}
	}
	// Seeded orders, so the analytic queries have data at t=0.
	r := fork(w.seed, 1)
	orders := make([]order, 0, W*10*w.seedOrders)
	for wid := 1; wid <= W; wid++ {
		for d := 1; d <= 10; d++ {
			for o := 0; o < w.seedOrders; o++ {
				orders = append(orders, w.genOrder(r, wid, d))
			}
		}
	}
	if err := bulkInsert(ctx, c, "orders", len(orders), func(sb *strings.Builder, i int) {
		o := orders[i]
		fmt.Fprintf(sb, "(%d,%d,%d,%d,%d,%d,%d)", o.w, o.d, o.id, o.customer, o.carrier, chLines, o.day)
	}); err != nil {
		return err
	}
	if err := bulkInsert(ctx, c, "order_line", len(orders)*chLines, func(sb *strings.Builder, i int) {
		o, ln := orders[i/chLines], i%chLines
		l := o.lines[ln]
		fmt.Fprintf(sb, "(%d,%d,%d,%d,%d,%d,%.2f,%d)", o.w, o.d, o.id, ln+1, l.item, l.qty, lineAmount(l.item, l.qty), o.day+ln)
	}); err != nil {
		return err
	}
	_, err := c.exec(ctx, "ANALYZE")
	return err
}

// chQueries is the analytic suite: eleven statements, an odd count so the
// median latency falls inside one query's distribution. The customer ranking
// joins on all three key columns (the stock suite joins on c_w_id alone and
// that one query then takes most of the cycle).
var chQueries = []struct{ name, sql string }{
	{"q1_pricing", `SELECT ol_number, sum(ol_quantity), sum(ol_amount), avg(ol_quantity), avg(ol_amount), count(*)
		FROM order_line WHERE ol_delivery_d > 5 GROUP BY ol_number ORDER BY ol_number`},
	{"q6_revenue", `SELECT sum(ol_amount) AS revenue FROM order_line
		WHERE ol_delivery_d BETWEEN 10 AND 300 AND ol_quantity BETWEEN 2 AND 8`},
	{"q4_carriers", `SELECT o_carrier_id, count(*) FROM orders
		WHERE o_entry_d BETWEEN 30 AND 330 GROUP BY o_carrier_id ORDER BY o_carrier_id`},
	{"q14_item_price", `SELECT i.i_price, sum(ol.ol_amount) FROM order_line ol
		JOIN item i ON ol.ol_i_id = i.i_id
		WHERE ol.ol_delivery_d > 50 GROUP BY i.i_price ORDER BY i.i_price LIMIT 20`},
	{"q12_late_lines", `SELECT o.o_ol_cnt, count(*) FROM orders o
		JOIN order_line ol ON o.o_w_id = ol.ol_w_id AND o.o_id = ol.ol_o_id
		WHERE ol.ol_delivery_d > o.o_entry_d GROUP BY o.o_ol_cnt ORDER BY o.o_ol_cnt`},
	{"customer_rank", `SELECT c.c_id, sum(o.o_ol_cnt) FROM customer c
		JOIN orders o ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id AND c.c_id = o.o_c_id
		GROUP BY c.c_id ORDER BY 2 DESC, 1 LIMIT 10`},
	{"stock_pressure", `SELECT s_w_id, count(*), avg(s_quantity) FROM stock
		WHERE s_quantity < 60 GROUP BY s_w_id ORDER BY s_w_id`},
	{"district_tput", `SELECT o_w_id, o_d_id, count(*), max(o_id) FROM orders
		GROUP BY o_w_id, o_d_id ORDER BY o_w_id, o_d_id LIMIT 30`},
	{"top_items", `SELECT ol_i_id, sum(ol_amount) FROM order_line
		GROUP BY ol_i_id ORDER BY 2 DESC, 1 LIMIT 10`},
	{"stock_item", `SELECT s.s_w_id, s.s_i_id, s.s_quantity, i.i_price FROM stock s
		JOIN item i ON s.s_i_id = i.i_id WHERE s.s_quantity < 55
		ORDER BY i.i_price DESC, s.s_w_id, s.s_i_id LIMIT 50`},
	{"orders_lines_redist", `SELECT o.o_carrier_id, count(*), sum(ol.ol_amount) FROM orders o
		JOIN order_line ol ON o.o_id = ol.ol_o_id
		GROUP BY o.o_carrier_id ORDER BY o.o_carrier_id`},
}

func chQueryNames() []string {
	names := make([]string, len(chQueries))
	for i, q := range chQueries {
		names[i] = q.name
	}
	return names
}

func (w *htap) op(ctx context.Context, c conn, _ int) (uint8, error) {
	i := w.next % len(chQueries)
	w.next++
	rows, err := c.exec(ctx, chQueries[i].sql)
	if err == nil && len(rows) == 0 {
		err = fmt.Errorf("%s returned no rows", chQueries[i].name)
	}
	return uint8(i), err
}

const (
	chNewOrder uint8 = iota
	chPayment
)

const (
	chUpdDistrict = "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2"
	chInsOrder    = "INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6, $7)"
	chInsLine     = "INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6, $7, $8)"
	chUpdStock    = "UPDATE stock SET s_quantity = s_quantity - 1, s_ytd = s_ytd + 1 WHERE s_w_id = $1 AND s_i_id = $2"
)

// background is the transactional stream: NewOrder and Payment, half each.
func (w *htap) background(ctx context.Context, c conn) (uint8, error) {
	r := w.rnd
	kind := uint8(r.intn(2))
	wid, did := r.between(1, w.warehouses), r.between(1, 10)
	if _, err := c.exec(ctx, "BEGIN"); err != nil {
		return kind, err
	}
	var err error
	if kind == chNewOrder {
		err = w.newOrder(ctx, c, wid, did)
	} else {
		err = w.payment(ctx, c, wid, did)
	}
	if err != nil {
		_, _ = c.exec(ctx, "ROLLBACK") // the statement error is the one reported
	}
	return kind, err
}

// newOrder bumps the district's order counter, inserts the order and its
// lines and draws down stock; every statement binds parameters.
func (w *htap) newOrder(ctx context.Context, c conn, wid, did int) error {
	if _, err := c.exec(ctx, chUpdDistrict, ints(wid, did)...); err != nil {
		return err
	}
	o := w.genOrder(w.rnd, wid, did)
	if _, err := c.exec(ctx, chInsOrder, ints(o.w, o.d, o.id, o.customer, o.carrier, chLines, o.day)...); err != nil {
		return err
	}
	for ln, l := range o.lines {
		args := append(ints(o.w, o.d, o.id, ln+1, l.item, l.qty), types.NewFloat(lineAmount(l.item, l.qty)), types.NewInt(int64(o.day+ln)))
		if _, err := c.exec(ctx, chInsLine, args...); err != nil {
			return err
		}
	}
	if _, err := c.exec(ctx, chUpdStock, ints(wid, w.rnd.between(1, w.items))...); err != nil {
		return err
	}
	if _, err := c.exec(ctx, "COMMIT"); err != nil {
		return err
	}
	w.newOrders++
	return nil
}

// payment is sent as literal SQL text, as the stock CH driver does: each
// text is new to the statement cache, which makes this the one stream where
// the parser is on the path. Amounts are multiples of 1/4 so the year-to-date
// sums stay exact.
func (w *htap) payment(ctx context.Context, c conn, wid, did int) error {
	cid := w.rnd.between(1, w.customers)
	amount := float64(w.rnd.between(1, 20000)) / 4
	for _, q := range []string{
		fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %.2f WHERE w_id = %d", amount, wid),
		fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + %.2f WHERE d_w_id = %d AND d_id = %d", amount, wid, did),
		fmt.Sprintf("UPDATE customer SET c_balance = c_balance - %.2f, c_ytd_payment = c_ytd_payment + %.2f, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
			amount, amount, wid, did, cid),
		fmt.Sprintf("INSERT INTO ch_history VALUES (%d, %d, %d, %.2f, 0)", wid, did, cid, amount),
	} {
		if _, err := c.exec(ctx, q); err != nil {
			return err
		}
	}
	if _, err := c.exec(ctx, "COMMIT"); err != nil {
		return err
	}
	w.payments += amount
	return nil
}

// check: the orders table holds the seeded orders plus one per acknowledged
// NewOrder, which is also what the district counters advanced by; every
// order has its five lines; and warehouse, district and history each sum to
// the acknowledged payments.
func (w *htap) check(ctx context.Context, h *host) error {
	c, err := h.session()
	if err != nil {
		return err
	}
	defer c.close()
	seeded := int64(w.warehouses * 10 * w.seedOrders)
	for _, chk := range []struct {
		q    string
		want int64
	}{
		{"SELECT count(*) FROM orders", seeded + w.newOrders},
		{"SELECT sum(d_next_o_id - 1) FROM district", w.newOrders},
		{"SELECT count(*) FROM order_line", chLines * (seeded + w.newOrders)},
	} {
		v, err := scalar(ctx, c, chk.q)
		if err != nil {
			return err
		}
		if got := v.Int(); got != chk.want {
			return fmt.Errorf("htap: %s = %d, acknowledged transactions give %d", chk.q, got, chk.want)
		}
	}
	for _, q := range []string{
		"SELECT sum(w_ytd) FROM warehouse",
		"SELECT sum(d_ytd) FROM district",
		"SELECT sum(h_amount) FROM ch_history",
	} {
		v, err := scalar(ctx, c, q)
		if err != nil {
			return err
		}
		if got := v.Float(); math.Abs(got-w.payments) > 1e-6 {
			return fmt.Errorf("htap: %s = %.2f, acknowledged payments sum to %.2f", q, got, w.payments)
		}
	}
	return nil
}

func (w *htap) statements() []statement {
	// Per analytic query the traced pass runs chTraceTxns transactions, half
	// of each kind; the weights follow that mix.
	var out []statement
	for _, q := range chQueries {
		out = append(out, statement{sql: q.sql, weight: 1})
	}
	n := float64(len(chQueries)) * chTraceTxns / 2
	out = append(out,
		statement{chUpdDistrict, ints(1, 1), n},
		statement{chInsOrder, ints(1, 1, 1, 1, 1, 5, 1), n},
		statement{chInsLine, append(ints(1, 1, 1, 1, 1, 1), types.NewFloat(1), types.NewInt(1)), n * chLines},
		statement{chUpdStock, ints(1, 1), n},
		statement{sql: "UPDATE warehouse SET w_ytd = w_ytd + 12.25 WHERE w_id = 1", weight: n},
		statement{sql: "UPDATE district SET d_ytd = d_ytd + 12.25 WHERE d_w_id = 1 AND d_id = 1", weight: n},
		statement{sql: "UPDATE customer SET c_balance = c_balance - 12.25, c_ytd_payment = c_ytd_payment + 12.25, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 1", weight: n},
		statement{sql: "INSERT INTO ch_history VALUES (1, 1, 1, 12.25, 0)", weight: n},
	)
	return out
}
