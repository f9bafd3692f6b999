package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/types"
)

// FuzzWALRecord: DecodeFrame over arbitrary bytes — as they come, and framed
// with a correct length and CRC so the payload decoder is reached — returns a
// record of a defined type or an error and never panics; an insert record
// built from fuzzed float bits and text round-trips bit for bit. The seeds
// include the floats a codec most easily gets wrong (±0, ±Inf, NaN,
// subnormals) and payloads whose type byte is undefined (0, 10, 255), so a
// plain `go test` checks those.
func FuzzWALRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(EncodeRecord(nil, &r), uint64(0), "")
	}
	for _, fl := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -0x1p-1030, math.MaxFloat64} {
		f.Add([]byte{}, math.Float64bits(fl), "text")
	}
	f.Add([]byte{byte(TypeInsert), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint64(1), "\x00")
	for _, typ := range []byte{0, 10, 255} {
		// A well-formed empty payload under an undefined type byte.
		f.Add([]byte{typ, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, uint64(0), "")
	}
	f.Fuzz(func(t *testing.T, raw []byte, bits uint64, s string) {
		for _, b := range [][]byte{raw, frameOf(raw)} {
			if r, n, err := DecodeFrame(b); err == nil && (n < 8 || n > len(b) || !r.Type.valid()) {
				t.Fatalf("DecodeFrame accepted %v consuming %d of %d bytes", r.Type, n, len(b))
			}
		}
		want := Record{Type: TypeInsert, LSN: 9, Leaf: 3, Xid: 7, TID: 11, Row: types.Row{
			types.NewFloat(math.Float64frombits(bits)), types.NewText(s), types.NewInt(-5), types.Null, types.NewBool(true), types.NewDate(19000)}}
		frame := EncodeRecord(nil, &want)
		got, n, err := DecodeFrame(frame)
		if err != nil || n != len(frame) || got.LSN != want.LSN || got.TID != want.TID || len(got.Row) != len(want.Row) {
			t.Fatalf("decoded %+v (%d of %d bytes, err %v), want %+v", got, n, len(frame), err, want)
		}
		for i, d := range want.Row {
			if got.Row[i] != d { // datums are plain values: == compares kinds and bits
				t.Fatalf("datum %d: %v (%v), want %v (%v)", i, got.Row[i], got.Row[i].Kind(), d, d.Kind())
			}
		}
	})
}

// frameOf wraps payload in a frame header with its length and CRC.
func frameOf(payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}
