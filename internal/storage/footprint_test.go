package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
)

// liveBytes returns the bytes build leaves reachable through what it returns,
// after a collection on either side.
func liveBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
}

// TestStoredFootprint pins what a stored row and an index entry cost: a
// unique key's index entry is one slot share plus one postings entry, and a
// heap row is a 32-byte slot header plus its datums (32 bytes each) in its
// page's arena.
func TestStoredFootprint(t *testing.T) {
	const n = 200_000
	perEntry := liveBytes(func() any {
		ix := NewHashIndex([]int{0})
		for i := 0; i < n; i++ {
			ix.Insert(types.Row{types.NewInt(int64(i))}, TupleID(i+1))
		}
		return ix
	}) / n
	tags := []types.Datum{types.NewText("pad"), types.NewText("filler"), types.NewText("x")}
	perRow := liveBytes(func() any {
		h := NewHeap()
		for i := 0; i < n; i++ {
			h.Insert(txn.XID(2), types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97)), tags[i%len(tags)]})
		}
		return h
	}) / n
	t.Logf("live bytes per index entry %.1f, per (int, int, text) heap row %.1f", perEntry, perRow)
	if perEntry > 40 {
		t.Errorf("index: %.1f live bytes per unique-key entry, want ≤ 40", perEntry)
	}
	if perRow > 140 {
		t.Errorf("heap: %.1f live bytes per (int, int, text) row, want ≤ 140", perRow)
	}
}

// TestHashIndexMatchesModel drives the index with random inserts, lookups and
// truncates against a map of key → tuple ids, from a table of eight slots up,
// with 1 to 5 000 versions per key. Every lookup equals the model, and every
// run a lookup returned still holds what it held when returned.
func TestHashIndexMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := NewHashIndex([]int{1})
	model := map[int64][]TupleID{}
	type seen struct {
		run  []TupleID
		want []TupleID
	}
	var returned []seen
	versions := func() int { // skewed: most keys have a few versions, some thousands
		return 1 + int(rng.ExpFloat64()*float64([]int{2, 40, 1500}[rng.Intn(3)]))%5000
	}
	next, displaced := TupleID(1), 0
	for round := 0; round < 4; round++ {
		for k := int64(0); k < 300; k++ {
			key := k*7919 + int64(round)
			for v := versions(); v > 0; v-- {
				ix.Insert(types.Row{types.NewText("payload"), types.NewInt(key)}, next)
				model[key] = append(model[key], next)
				next++
				if rng.Intn(50) == 0 {
					probe := int64(rng.Intn(int(k+1)))*7919 + int64(round)
					if rng.Intn(4) == 0 {
						probe = -1 - probe // absent
					}
					run := ix.Lookup([]types.Datum{types.NewInt(probe)})
					if !slices.Equal(run, model[probe]) || cap(run) != len(run) {
						t.Fatalf("round %d: Lookup(%d) = %d entries (cap %d), model %d", round, probe, len(run), cap(run), len(model[probe]))
					}
					returned = append(returned, seen{run, slices.Clone(run)})
				}
			}
		}
		for i, s := range ix.slots {
			if s.n > 0 && int((s.hash*0x9e3779b97f4a7c15)>>ix.shift) != i {
				displaced++
			}
		}
		if ix.Len() != int(next)-1 {
			t.Fatalf("round %d: Len %d, inserted %d", round, ix.Len(), next-1)
		}
		for key, want := range model {
			if got := ix.Lookup([]types.Datum{types.NewInt(key)}); !slices.Equal(got, want) {
				t.Fatalf("round %d: key %d has %d entries, model %d", round, key, len(got), len(want))
			}
		}
		if round%2 == 1 {
			ix.Truncate()
			clear(model)
			next = 1
			if ix.Len() != 0 || ix.Lookup([]types.Datum{types.NewInt(0)}) != nil {
				t.Fatal("entries survived Truncate")
			}
		}
	}
	for i, s := range returned {
		if !slices.Equal(s.run, s.want) {
			t.Fatalf("returned run %d was rewritten", i)
		}
	}
	if displaced == 0 {
		t.Fatal("no key was ever displaced from its home slot: the probe path went untested")
	}
}

// TestHashIndexRemoveMatchesModel drives a hot-key churn — each key gains
// versions and loses its oldest ones, one or several at a time, some keys
// are emptied and refilled, and now and then a bulk Drop sweeps a random
// set — against a map of key → tuple ids. Every lookup equals the model, no
// run a lookup returned is ever rewritten, emptied slots are reused, and
// the arena never holds more dead room than live room.
func TestHashIndexRemoveMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := NewHashIndex([]int{0})
	model := map[int64][]TupleID{}
	type seen struct{ run, want []TupleID }
	var returned []seen
	next := TupleID(1)
	keyRow := func(k int64) types.Row { return types.Row{types.NewInt(k)} }
	for step := 0; step < 100_000; step++ {
		k := int64(rng.Intn(64))
		switch r := rng.Intn(20); {
		case r < 10 || len(model[k]) == 0:
			ix.Insert(keyRow(k), next)
			model[k] = append(model[k], next)
			next++
		case r < 17: // prune the oldest versions, the common case
			n := 1 + rng.Intn(len(model[k]))%3
			if got := ix.Remove(keyRow(k), slices.Clone(model[k][:n])...); got != n {
				t.Fatalf("step %d: Remove of %d oldest of key %d found %d", step, n, k, got)
			}
			model[k] = model[k][n:]
		case r < 19: // a version from anywhere in the run, and one never stored
			i := rng.Intn(len(model[k]))
			if got := ix.Remove(keyRow(k), next, model[k][i]); got != 1 {
				t.Fatalf("step %d: Remove(%d, %d) found %d", step, k, model[k][i], got)
			}
			model[k] = slices.Delete(slices.Clone(model[k]), i, i+1)
		default: // VACUUM's bulk form over every key
			var dead []TupleID
			for key, tids := range model {
				var kept []TupleID
				for _, tid := range tids {
					if rng.Intn(3) == 0 {
						dead = append(dead, tid)
					} else {
						kept = append(kept, tid)
					}
				}
				model[key] = kept
			}
			slices.Sort(dead)
			ix.Drop(dead)
		}
		if step%97 == 0 {
			run := ix.Lookup(keyRow(k))
			if !slices.Equal(run, model[k]) {
				t.Fatalf("step %d: Lookup(%d) = %v, model %v", step, k, run, model[k])
			}
			returned = append(returned, seen{run, slices.Clone(run)})
		}
		live := 0
		for _, s := range ix.slots {
			if s.n > 0 {
				live += roomOf(s.n)
			}
		}
		if len(ix.posts)-live != ix.garbage || ix.garbage > live+1 {
			t.Fatalf("step %d: arena of %d entries, %d in live rooms, %d counted garbage", step, len(ix.posts), live, ix.garbage)
		}
	}
	n := 0
	for k, want := range model {
		n += len(want)
		if got := ix.Lookup(keyRow(k)); !slices.Equal(got, want) {
			t.Fatalf("key %d: %v, model %v", k, got, want)
		}
	}
	if ix.Len() != n || ix.used > 64 {
		t.Fatalf("Len %d, model %d; %d slots taken for 64 keys", ix.Len(), n, ix.used)
	}
	for i, s := range returned {
		if !slices.Equal(s.run, s.want) {
			t.Fatalf("returned run %d was rewritten", i)
		}
	}
}

// TestHeapPagesKeepViews: a row handed up by Fetch or Scan is a view of its
// page's arena, and neither a growing first page nor VACUUM — which drops the
// arena of a page whose slots are all dead — changes what a view reads.
func TestHeapPagesKeepViews(t *testing.T) {
	h := NewHeap()
	val := func(i int) types.Row { return types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprint("v", i))} }
	var views []types.Row
	for i := 0; i < 3*zonePageRows; i++ {
		if tid := h.Insert(txn.XID(2), val(i)); tid != TupleID(i+1) {
			t.Fatalf("insert %d got tid %d", i, tid)
		}
		if i < zonePageRows+10 { // the first page reallocates its arena as it fills
			_, r, ok := h.Fetch(TupleID(i + 1))
			if !ok || cap(r) != len(r) {
				t.Fatalf("Fetch(%d): %v %v (cap %d)", i+1, r, ok, cap(r))
			}
			views = append(views, r)
		}
	}
	h.SetXmax(5, 3)
	reclaimed := vacuum(h, func(hd Header) bool { return hd.TID <= zonePageRows || hd.TID == zonePageRows+5 })
	if reclaimed != zonePageRows+1 || h.pages[0].vals != nil || h.pages[1].vals == nil {
		t.Fatalf("reclaimed %d; page 0 arena dropped %v, page 1 kept %v", reclaimed, h.pages[0].vals == nil, h.pages[1].vals != nil)
	}
	for i, r := range views {
		if !r.Equal(val(i)) {
			t.Fatalf("view of tuple %d reads %v after growth and vacuum, want %v", i+1, r, val(i))
		}
	}
	if _, _, ok := h.Fetch(zonePageRows + 5); ok {
		t.Fatal("a vacuumed slot is still fetchable")
	}
	if hdr, r, ok := h.Fetch(zonePageRows + 6); !ok || hdr.TID != zonePageRows+6 || !r.Equal(val(zonePageRows+5)) {
		t.Fatalf("a live neighbour: %+v %v %v", hdr, r, ok)
	}
	if tid := h.Insert(txn.XID(4), val(-1)); tid != 3*zonePageRows+1 || h.RowCount() != 3*zonePageRows+1 {
		t.Fatalf("insert after vacuum: tid %d, %d rows", tid, h.RowCount())
	}
	if _, rows := collectBatches(t, h, nil, 100); len(rows) != 2*zonePageRows {
		t.Fatalf("scan after vacuum: %d rows, want %d", len(rows), 2*zonePageRows)
	}
}

// TestHeapViewsUnderWriters: readers keep and re-read the views Scan and
// Fetch hand up while a writer fills pages — growing the first one's arena —
// stamps headers and vacuums whole pages (run under the race detector).
func TestHeapViewsUnderWriters(t *testing.T) {
	h := NewHeap()
	const rows = 3 * zonePageRows
	want := func(r types.Row) bool { return r[1].Int() == 2*r[0].Int() }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rows; i++ {
			h.Insert(txn.XID(2), types.Row{types.NewInt(int64(i)), types.NewInt(int64(2 * i))})
			if i%100 == 99 {
				h.SetXmax(TupleID(i), 3)
			}
		}
		vacuum(h, func(hd Header) bool { return hd.TID <= zonePageRows })
	}()
	var kept []types.Row
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		err := h.Scan(nil, 256, func(ch *Chunk) bool {
			for i, r := range ch.Rows {
				if !want(r) || r[0].Int() != int64(ch.First)+int64(i)-1 {
					t.Errorf("tuple %d reads %v", ch.First+TupleID(i), r)
					return false
				}
			}
			kept = append(kept, ch.Rows...)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, r, ok := h.Fetch(TupleID(1 + len(kept)%rows)); ok {
			kept = append(kept, r)
		}
	}
	for _, r := range kept {
		if !want(r) {
			t.Fatalf("a kept view reads %v", r)
		}
	}
}
