package storage

import (
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// driveEngine runs a fixed mutation history against e with logging attached.
func driveEngine(t *testing.T, e Engine) {
	t.Helper()
	var tids []TupleID
	for i := 0; i < 6000; i++ { // crosses AO-column seal and zone-page bounds
		tid := e.Insert(txn.XID(1+i%3), types.Row{
			types.NewInt(int64(i)), types.NewText("r"), types.NewFloat(float64(i) / 2),
		})
		tids = append(tids, tid)
	}
	if err := e.SetXmax(tids[10], 9); err != nil {
		t.Fatal(err)
	}
	e.ClearXmax(tids[10], 9)
	if err := e.SetXmax(tids[11], 5); err != nil {
		t.Fatal(err)
	}
	e.LinkUpdate(tids[11], tids[12])
	e.Truncate()
	for i := 0; i < 100; i++ {
		e.Insert(4, types.Row{types.NewInt(int64(-i)), types.Null, types.NewFloat(0)})
	}
	if err := e.SetXmax(3, 6); err != nil {
		t.Fatal(err)
	}
}

func TestWALReplayReproducesEngines(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() Engine
	}{
		{"heap", func() Engine { return NewHeap() }},
		{"ao_row", func() Engine { return NewAORow() }},
		{"ao_column", func() Engine { return NewAOColumn(3, CompressionRLEDelta) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := wal.New()
			primary := tc.fresh()
			primary.(WALLogged).SetWAL(log, 77)
			driveEngine(t, primary)

			replica := tc.fresh()
			if err := log.ReplayFrom(1, func(r wal.Record) error {
				if r.Leaf != 77 {
					t.Fatalf("record leaf %d", r.Leaf)
				}
				return ApplyRecord(replica, r)
			}); err != nil {
				t.Fatal(err)
			}

			wantH, want := collectBatches(t, primary, nil, 256)
			gotH, got := collectBatches(t, replica, nil, 256)
			if len(want) != len(got) {
				t.Fatalf("replica has %d versions, primary %d", len(got), len(want))
			}
			for i := range want {
				if wantH[i] != gotH[i] {
					t.Fatalf("version %d header: got %+v want %+v", i, gotH[i], wantH[i])
				}
				if len(want[i]) != len(got[i]) {
					t.Fatalf("version %d row arity differs", i)
				}
				for c := range want[i] {
					if !types.Equal(want[i][c], got[i][c]) ||
						want[i][c].Kind() != got[i][c].Kind() {
						t.Fatalf("version %d col %d: got %v want %v", i, c, got[i][c], want[i][c])
					}
				}
			}
			if primary.RowCount() != replica.RowCount() {
				t.Fatalf("row counts differ: %d vs %d", primary.RowCount(), replica.RowCount())
			}
		})
	}
}

func TestApplyRecordDetectsTIDDivergence(t *testing.T) {
	e := NewHeap()
	e.Insert(1, types.Row{types.NewInt(1)})
	// A replayed insert claiming tid 5 cannot match the engine's next tid 2.
	err := ApplyRecord(e, wal.Record{Type: wal.TypeInsert, Xid: 1, TID: 5, Row: types.Row{types.NewInt(2)}})
	if err == nil {
		t.Fatal("diverging tid accepted")
	}
}

func TestResetDerivedDropsZonePages(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 3000; i++ {
		h.Insert(1, types.Row{types.NewInt(int64(i))})
	}
	// Build lazy zone pages via a predicated scan.
	pred := []types.Conjunct{{Col: 0, Op: types.OpEqual, Val: types.NewInt(1)}}
	ScanBatches(h, &ScanOpts{Pred: pred}, 256, func(hdrs []Header, rows []types.Row) bool { return true })
	if h.ZonePagesBuilt() == 0 {
		t.Fatal("no zone pages built by predicated scan")
	}
	h.ResetDerived()
	if n := h.ZonePagesBuilt(); n != 0 {
		t.Fatalf("%d zone pages survive ResetDerived", n)
	}
}
