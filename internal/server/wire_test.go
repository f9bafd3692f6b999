package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// writeFrame writes one frame of payload with one Write.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	b, err := AppendFrame(nil, typ, func(dst []byte) []byte { return append(dst, payload...) })
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, MsgQuery, p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != MsgQuery || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: typ=%q len=%d want len=%d", typ, len(got), len(p))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A hostile length prefix must be rejected by header inspection, before
	// the payload allocation — this header declares ~4 GiB.
	hdr := []byte{MsgQuery, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if err := writeFrame(&bytes.Buffer{}, MsgQuery, make([]byte, MaxFrameLen+1)); err != ErrFrameTooLarge {
		t.Fatalf("oversized write: got %v, want ErrFrameTooLarge", err)
	}
}

func TestDatumRoundTrip(t *testing.T) {
	datums := []types.Datum{
		types.Null,
		types.NewInt(0),
		types.NewInt(-1),
		types.NewInt(math.MaxInt64),
		types.NewInt(math.MinInt64),
		types.NewFloat(3.5),
		types.NewFloat(math.Inf(-1)),
		types.NewFloat(math.Inf(1)),
		types.NewFloat(math.NaN()),
		types.NewFloat(0),
		types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.SmallestNonzeroFloat64),
		types.NewFloat(-0x1p-1030),
		types.NewBool(true),
		types.NewBool(false),
		types.NewText(""),
		types.NewText("it's a 'quoted' string\x00with NUL"),
		types.NewDate(0),
		types.NewDate(-719162), // far past
		types.NewDate(18993),   // 2022-01-01
	}
	var w wbuf
	w.row(types.Row(datums))
	r := rbuf{b: w.b}
	got := r.row()
	if err := r.done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(datums) {
		t.Fatalf("got %d datums, want %d", len(got), len(datums))
	}
	for i, d := range datums {
		g := got[i]
		if g.Kind() != d.Kind() {
			t.Fatalf("datum %d: kind %v, want %v", i, g.Kind(), d.Kind())
		}
		switch d.Kind() {
		case types.KindFloat:
			if math.Float64bits(g.Float()) != math.Float64bits(d.Float()) {
				t.Fatalf("datum %d: float bits differ", i)
			}
		case types.KindNull:
		default:
			if types.Compare(g, d) != 0 {
				t.Fatalf("datum %d: %v != %v", i, g, d)
			}
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	row := types.Row{types.NewInt(7), types.NewText("x"), types.Null}
	check := func(name string, enc []byte, dec func([]byte) (any, error), want any) {
		t.Helper()
		got, err := dec(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v, want %+v", name, got, want)
		}
	}
	st := &Startup{Version: ProtocolVersion, Role: "analyst"}
	check("startup", st.Append(nil), func(b []byte) (any, error) { return DecodeStartup(b) }, st)
	q := &Query{SQL: "SELECT $1", Params: row}
	check("query", q.Append(nil), func(b []byte) (any, error) { return DecodeQuery(b) }, q)
	qe := &Query{SQL: "SELECT 1"}
	check("query-noparams", qe.Append(nil), func(b []byte) (any, error) { return DecodeQuery(b) }, qe)
	ao := &AuthOK{SessionID: 42}
	check("authok", ao.Append(nil), func(b []byte) (any, error) { return DecodeAuthOK(b) }, ao)
	rd := &RowDesc{Cols: []ColDesc{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindText}}}
	check("rowdesc", rd.Append(nil), func(b []byte) (any, error) { return DecodeRowDesc(b) }, rd)
	dr := &DataRow{Row: row}
	check("datarow", dr.Append(nil), func(b []byte) (any, error) { return DecodeDataRow(b) }, dr)
	cm := &Complete{Tag: "INSERT", RowsAffected: 3}
	check("complete", cm.Append(nil), func(b []byte) (any, error) { return DecodeComplete(b) }, cm)
	em := &ErrorMsg{Message: "boom"}
	check("error", em.Append(nil), func(b []byte) (any, error) { return DecodeErrorMsg(b) }, em)
	ry := &Ready{Status: 'I'}
	check("ready", ry.Append(nil), func(b []byte) (any, error) { return DecodeReady(b) }, ry)
}

// decodeAny runs every message decoder over b; none may panic, and the
// fuzzer additionally checks re-encode fidelity for the ones that succeed.
func decodeAny(t testing.TB, b []byte) {
	if m, err := DecodeStartup(b); err == nil {
		if !bytes.Equal(m.Append(nil), b) {
			t.Fatalf("startup re-encode differs for %x", b)
		}
	}
	if m, err := DecodeQuery(b); err == nil {
		if got, err2 := DecodeQuery(m.Append(nil)); err2 != nil || got.SQL != m.SQL {
			t.Fatalf("query re-encode unstable for %x", b)
		}
	}
	_, _ = DecodeAuthOK(b)
	_, _ = DecodeRowDesc(b)
	_, _ = DecodeDataRow(b)
	_, _ = DecodeComplete(b)
	_, _ = DecodeErrorMsg(b)
	_, _ = DecodeReady(b)
}

func TestTruncatedAndCorruptPayloads(t *testing.T) {
	row := types.Row{types.NewInt(7), types.NewText("hello"), types.NewFloat(1.5)}
	full := (&Query{SQL: "SELECT a FROM t WHERE b = $1", Params: row}).Append(nil)
	// Every strict prefix must decode to an error, never a panic.
	for i := 0; i < len(full); i++ {
		if _, err := DecodeQuery(full[:i]); err == nil {
			t.Fatalf("truncated payload (%d/%d bytes) decoded without error", i, len(full))
		}
		decodeAny(t, full[:i])
	}
	// Trailing garbage is a protocol error too.
	if _, err := DecodeQuery(append(append([]byte{}, full...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A row declaring an absurd column count must be rejected by the
	// column cap, without attempting the allocation.
	var w wbuf
	w.str("SELECT 1")
	w.b = binary.AppendUvarint(w.b, maxRowCols+2) // uvarint(count+1)
	if _, err := DecodeQuery(w.b); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("declares %d columns", maxRowCols+1)) {
		t.Fatalf("oversized column count: got %v, want the column cap", err)
	}
}

func FuzzFrameCodec(f *testing.F) {
	row := types.Row{types.NewInt(-3), types.NewText("x'y"), types.NewFloat(2.5), types.NewBool(true), types.NewDate(19000), types.Null}
	f.Add((&Startup{Version: ProtocolVersion, Role: "admin"}).Append(nil))
	f.Add((&Query{SQL: "SELECT * FROM t WHERE a = $1", Params: row}).Append(nil))
	f.Add((&AuthOK{SessionID: 7}).Append(nil))
	f.Add((&Ready{Status: 'T'}).Append(nil))
	f.Add((&RowDesc{Cols: []ColDesc{{Name: "a", Kind: types.KindInt}}}).Append(nil))
	f.Add((&DataRow{Row: row}).Append(nil))
	f.Add((&Complete{Tag: "SELECT", RowsAffected: 10}).Append(nil))
	f.Add((&ErrorMsg{Message: "relation does not exist"}).Append(nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Every decoder must be total: error or value, never panic/OOM.
		decodeAny(t, b)
		// The frame reader over arbitrary bytes must be equally tame.
		r := bytes.NewReader(b)
		for {
			_, payload, err := ReadFrame(r)
			if err != nil {
				break
			}
			if len(payload) > MaxFrameLen {
				t.Fatalf("ReadFrame returned %d > MaxFrameLen payload", len(payload))
			}
		}
		// And a frame we write must read back identically.
		var buf bytes.Buffer
		if len(b) <= MaxFrameLen {
			if err := writeFrame(&buf, MsgQuery, b); err != nil {
				t.Fatalf("writeFrame: %v", err)
			}
			typ, got, err := ReadFrame(&buf)
			if err != nil || typ != MsgQuery || !bytes.Equal(got, b) {
				t.Fatalf("frame round trip failed: %v", err)
			}
		}
	})
}

// TestReadFrameHeaderBounds pins the exact header layout (type byte +
// big-endian u32) so a codec refactor cannot silently change the wire.
func TestReadFrameHeaderBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgQuery, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[0] != MsgQuery {
		t.Fatalf("type byte %q, want %q", raw[0], MsgQuery)
	}
	if n := binary.BigEndian.Uint32(raw[1:5]); n != 3 {
		t.Fatalf("length %d, want 3", n)
	}
	if string(raw[5:]) != "abc" {
		t.Fatalf("payload %q", raw[5:])
	}
}
