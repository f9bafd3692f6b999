// Quickstart: boot a 4-segment cluster, create a distributed table, load a
// few rows, and run point and analytical queries through the public API.
package main

import (
	"context"
	"fmt"
	"log"

	greenplum "repro"
)

func main() {
	db, err := greenplum.Open(greenplum.Options{Segments: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	conn, err := db.Connect("")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	must := func(q string, args ...greenplum.Datum) *greenplum.Result {
		res, err := conn.Exec(ctx, q, args...)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		return res
	}

	// The paper's running example (§3.2): two tables, one hash-distributed,
	// one distributed randomly, joined on the hash key.
	must(`CREATE TABLE student (id int, name text) DISTRIBUTED BY (id)`)
	must(`CREATE TABLE class (id int, name text) DISTRIBUTED RANDOMLY`)
	for i := 1; i <= 10; i++ {
		must(`INSERT INTO student VALUES ($1, $2)`, greenplum.Int(int64(i)), greenplum.Text(fmt.Sprintf("student-%d", i)))
		must(`INSERT INTO class VALUES ($1, $2)`, greenplum.Int(int64(i)), greenplum.Text(fmt.Sprintf("class-%d", i)))
	}

	fmt.Println("-- point query --")
	res := must(`SELECT name FROM student WHERE id = $1`, greenplum.Int(7))
	for _, row := range res.Rows {
		fmt.Println(row)
	}

	fmt.Println("-- distributed join (student redistributes nothing; class moves) --")
	res = must(`EXPLAIN SELECT s.name, c.name FROM student s JOIN class c ON s.id = c.id`)
	for _, row := range res.Rows {
		fmt.Println(row[0].Text())
	}
	res = must(`SELECT s.name, c.name FROM student s JOIN class c ON s.id = c.id ORDER BY s.id LIMIT 3`)
	for _, row := range res.Rows {
		fmt.Println(row)
	}

	fmt.Println("-- transaction --")
	must(`BEGIN`)
	must(`UPDATE student SET name = 'renamed' WHERE id = 1`)
	must(`ROLLBACK`)
	v, err := conn.QueryScalar(ctx, `SELECT name FROM student WHERE id = 1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after rollback:", v)

	fmt.Printf("stats: 1PC=%d 2PC=%d read-only=%d\n",
		db.MetricValue("txn.commits_1pc"), db.MetricValue("txn.commits_2pc"), db.MetricValue("txn.commits_readonly"))
}
