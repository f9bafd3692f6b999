package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// loadAnalyticsTable creates an AO-column table and bulk-loads nRows rows.
func loadAnalyticsTable(t *testing.T, s *Session, nRows int) {
	t.Helper()
	ctx := context.Background()
	if _, err := s.Exec(ctx, "CREATE TABLE f (a int, g int, w int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)"); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < nRows; off += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO f VALUES ")
		for i := off; i < off+1000 && i < nRows; i++ {
			if i > off {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,%d)", i, i%37, i%7)
		}
		if _, err := s.Exec(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentBlockCacheWarmsAcrossQueries: the second identical scan should
// be served from the segments' decoded-block caches.
func TestSegmentBlockCacheWarmsAcrossQueries(t *testing.T) {
	cfg := cluster.GPDB6(2)
	e := NewEngine(cfg)
	defer e.Close()
	s, _ := e.NewSession("")
	loadAnalyticsTable(t, s, 12000)
	ctx := context.Background()
	q := "SELECT g, sum(a) FROM f GROUP BY g"
	if _, err := s.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	reg := e.Metrics()
	coldHits := metric(reg, "storage.blockcache.hits")
	if metric(reg, "storage.blockcache.misses") == 0 {
		t.Fatal("first scan produced no cache misses — cache not wired?")
	}
	if _, err := s.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	if warmHits := metric(reg, "storage.blockcache.hits"); warmHits <= coldHits {
		t.Fatalf("second scan did not hit the block cache: cold=%d warm=%d", coldHits, warmHits)
	}
	// DROP TABLE must release the table's cached blocks.
	if _, err := s.Exec(ctx, "DROP TABLE f"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot().Values
	if n, b := snap["storage.blockcache.entries"], snap["storage.blockcache.used_bytes"]; n != 0 || b != 0 {
		t.Fatalf("the caches retain the dropped table's blocks: %d entries, %d bytes", n, b)
	}
}
