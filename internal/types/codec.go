package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorruptRow is wrapped by every DecodeRow error.
var ErrCorruptRow = errors.New("types: corrupt row")

// AppendRow appends row's encoding to dst and returns the extended slice.
// It is the one row codec: WAL records, spill files and the wire protocol
// all carry rows in this layout.
//
// The layout is uvarint(len+1), where 0 means a nil row, then per datum its
// Kind byte and a payload:
//
//	int, date  varint
//	bool       one byte (0 or 1)
//	float      8 big-endian bytes of the IEEE bits
//	text       uvarint length, then the bytes
//	NULL       nothing
//
// A nil row and an empty row stay distinct, and every datum round-trips
// bit for bit (-0, NaN payloads, far-past dates).
func AppendRow(dst []byte, row Row) []byte {
	if row == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(row))+1)
	for _, d := range row {
		dst = append(dst, byte(d.kind))
		switch d.kind {
		case KindInt, KindDate:
			dst = binary.AppendVarint(dst, d.i)
		case KindBool:
			dst = append(dst, byte(d.i)) // NewBool stores 0 or 1
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, uint64(d.i))
		case KindText:
			dst = binary.AppendUvarint(dst, uint64(len(d.s)))
			dst = append(dst, d.s...)
		}
	}
	return dst
}

// DecodeRow decodes the row at the start of p and returns it with the bytes
// after it. It is total: a count larger than the remaining bytes (every
// datum takes at least its kind byte), an unknown kind or a truncation is an
// error wrapping ErrCorruptRow, and the count is checked before the row is
// allocated.
func DecodeRow(p []byte) (Row, []byte, error) {
	n, k := binary.Uvarint(p)
	if k <= 0 {
		return nil, nil, fmt.Errorf("%w: bad column count", ErrCorruptRow)
	}
	p = p[k:]
	if n == 0 {
		return nil, p, nil
	}
	if n-1 > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: %d datums in %d bytes", ErrCorruptRow, n-1, len(p))
	}
	row := make(Row, n-1)
	for i := range row {
		if len(p) == 0 {
			return nil, nil, fmt.Errorf("%w: truncated datum", ErrCorruptRow)
		}
		kind := Kind(p[0])
		p = p[1:]
		switch kind {
		case KindNull:
		case KindInt, KindDate:
			v, vn := binary.Varint(p)
			if vn <= 0 {
				return nil, nil, fmt.Errorf("%w: bad %v datum", ErrCorruptRow, kind)
			}
			row[i] = Datum{kind: kind, i: v}
			p = p[vn:]
		case KindBool:
			if len(p) < 1 {
				return nil, nil, fmt.Errorf("%w: truncated bool datum", ErrCorruptRow)
			}
			row[i] = NewBool(p[0] != 0)
			p = p[1:]
		case KindFloat:
			if len(p) < 8 {
				return nil, nil, fmt.Errorf("%w: truncated float datum", ErrCorruptRow)
			}
			row[i] = Datum{kind: KindFloat, i: int64(binary.BigEndian.Uint64(p))}
			p = p[8:]
		case KindText:
			l, ln := binary.Uvarint(p)
			if ln <= 0 || l > uint64(len(p)-ln) {
				return nil, nil, fmt.Errorf("%w: truncated text datum", ErrCorruptRow)
			}
			row[i] = NewText(string(p[ln : ln+int(l)]))
			p = p[ln+int(l):]
		default:
			return nil, nil, fmt.Errorf("%w: unknown datum kind %d", ErrCorruptRow, kind)
		}
	}
	return row, p, nil
}
