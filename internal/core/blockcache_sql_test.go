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
	var coldHits, coldMisses int64
	for _, seg := range e.Cluster().Segments() {
		st := seg.BlockCacheStats()
		coldHits += st.Hits
		coldMisses += st.Misses
	}
	if coldMisses == 0 {
		t.Fatal("first scan produced no cache misses — cache not wired?")
	}
	if _, err := s.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	var warmHits int64
	for _, seg := range e.Cluster().Segments() {
		warmHits += seg.BlockCacheStats().Hits
	}
	if warmHits <= coldHits {
		t.Fatalf("second scan did not hit the block cache: cold=%d warm=%d", coldHits, warmHits)
	}
	// DROP TABLE must release the table's cached blocks.
	if _, err := s.Exec(ctx, "DROP TABLE f"); err != nil {
		t.Fatal(err)
	}
	for i, seg := range e.Cluster().Segments() {
		if st := seg.BlockCacheStats(); st.Entries != 0 || st.UsedBytes != 0 {
			t.Fatalf("segment %d cache retains dropped table's blocks: %+v", i, st)
		}
	}
}
