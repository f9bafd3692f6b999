package storage

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/types"
)

// Compression selects the per-column codec of an AO-column table
// (paper §3.4: zstd, quicklz, zlib, RLE with delta; here: zlib and
// RLE-with-delta, plus none).
type Compression uint8

// Compression codecs.
const (
	// CompressionNone stores values verbatim.
	CompressionNone Compression = iota
	// CompressionRLEDelta run-length-encodes deltas of integer-like columns;
	// non-integer kinds fall back to zlib.
	CompressionRLEDelta
	// CompressionZlib deflates the serialized block.
	CompressionZlib
)

func (c Compression) String() string {
	switch c {
	case CompressionRLEDelta:
		return "rle_delta"
	case CompressionZlib:
		return "zlib"
	default:
		return "none"
	}
}

// encodeDatums serializes a column vector to bytes: a kind byte per value
// followed by its payload.
func encodeDatums(vals []types.Datum) []byte {
	var buf bytes.Buffer
	var scratch [8]byte
	for _, d := range vals {
		buf.WriteByte(byte(d.Kind()))
		switch d.Kind() {
		case types.KindNull:
		case types.KindInt, types.KindBool, types.KindDate:
			binary.LittleEndian.PutUint64(scratch[:], uint64(d.Int()))
			buf.Write(scratch[:])
		case types.KindFloat:
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(d.Float()))
			buf.Write(scratch[:])
		case types.KindText:
			s := d.Text()
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(s)))
			buf.Write(scratch[:4])
			buf.WriteString(s)
		}
	}
	return buf.Bytes()
}

// decodeVec reverses encodeDatums straight into a typed vector: the first
// pass checks the framing and learns whether the values share one kind and
// how many text bytes there are, the second fills the payload. Text values
// are windows of one string holding exactly the block's text bytes. Values of
// more than one kind come back boxed.
func decodeVec(b []byte, n int) (*types.Vec, error) {
	v := &types.Vec{}
	mixed, textLen := false, 0
	p := b
	for i := 0; i < n; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("storage: truncated column block")
		}
		kind, w := types.Kind(p[0]), 8
		switch kind {
		case types.KindNull:
			w = 0
		case types.KindInt, types.KindBool, types.KindDate, types.KindFloat:
		case types.KindText:
			if len(p) < 5 {
				return nil, fmt.Errorf("storage: truncated text length")
			}
			w = 4 + int(binary.LittleEndian.Uint32(p[1:]))
			textLen += w - 4
		default:
			return nil, fmt.Errorf("storage: bad datum kind %d", kind)
		}
		if len(p) < 1+w {
			return nil, fmt.Errorf("storage: truncated %s datum", kind)
		}
		p = p[1+w:]
		if kind != types.KindNull {
			mixed = mixed || (v.Kind != types.KindNull && v.Kind != kind)
			v.Kind = kind
		}
	}
	var text strings.Builder
	switch {
	case mixed:
		v.Boxed = make([]types.Datum, n)
	case v.Kind == types.KindFloat:
		v.Floats = make([]float64, n)
	case v.Kind == types.KindText:
		v.Strs = make([]string, n)
		text.Grow(textLen)
	default:
		if v.Kind == types.KindNull {
			v.Kind = types.KindInt // all NULL
		}
		v.Ints = make([]int64, n)
	}
	ends := make([]int, 0, len(v.Strs))
	for i := 0; i < n; i++ {
		kind := types.Kind(b[0])
		b = b[1:]
		var bits uint64
		var s []byte
		switch kind {
		case types.KindNull:
		case types.KindText:
			ln := int(binary.LittleEndian.Uint32(b))
			s, b = b[4:4+ln], b[4+ln:]
		default:
			bits, b = binary.LittleEndian.Uint64(b), b[8:]
		}
		switch {
		case mixed:
			v.Boxed[i] = boxDatum(kind, bits, s)
		case kind == types.KindNull:
			v.SetNull(i)
		case v.Floats != nil:
			v.Floats[i] = math.Float64frombits(bits)
		case v.Ints != nil:
			v.Ints[i] = int64(bits)
		}
		if v.Strs != nil {
			text.Write(s)
			ends = append(ends, text.Len())
		}
	}
	for i, big, lo := 0, text.String(), 0; i < len(ends); i++ {
		v.Strs[i] = big[lo:ends[i]]
		lo = ends[i]
	}
	return v, nil
}

// boxDatum builds the datum of a decoded value of a mixed-kind block.
func boxDatum(kind types.Kind, bits uint64, text []byte) types.Datum {
	switch kind {
	case types.KindInt:
		return types.NewInt(int64(bits))
	case types.KindBool:
		return types.NewBool(bits != 0)
	case types.KindDate:
		return types.NewDate(int64(bits))
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(bits))
	case types.KindText:
		return types.NewText(string(text))
	}
	return types.Null
}

// allIntLike reports whether every value is int/date/bool (or NULL), which
// the RLE-delta codec requires.
func allIntLike(vals []types.Datum) bool {
	for _, d := range vals {
		switch d.Kind() {
		case types.KindInt, types.KindDate, types.KindBool, types.KindNull:
		default:
			return false
		}
	}
	return true
}

// rleDeltaEncode encodes int-like values as (firstValue, runs of identical
// deltas). NULLs are carried in a separate bitmap and the kind vector is
// run-length encoded (columns are normally single-kind, so it collapses to
// one run). Layout:
//
//	u32 n | nullBitmap ceil(n/8) | kindRuns: (varint count, kind byte)* |
//	varint first | runs: (varint count, varint delta)*
func rleDeltaEncode(vals []types.Datum) []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	n := len(vals)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	buf.Write(hdr[:])
	nulls := make([]byte, (n+7)/8)
	ints := make([]int64, 0, n)
	for i, d := range vals {
		if d.IsNull() {
			nulls[i/8] |= 1 << (i % 8)
			ints = append(ints, 0)
		} else {
			ints = append(ints, d.Int())
		}
	}
	buf.Write(nulls)
	// Kind runs.
	for i := 0; i < n; {
		k := vals[i].Kind()
		j := i + 1
		for j < n && vals[j].Kind() == k {
			j++
		}
		w := binary.PutUvarint(scratch[:], uint64(j-i))
		buf.Write(scratch[:w])
		buf.WriteByte(byte(k))
		i = j
	}
	if n == 0 {
		return buf.Bytes()
	}
	k := binary.PutVarint(scratch[:], ints[0])
	buf.Write(scratch[:k])
	// Runs of identical deltas.
	i := 1
	for i < n {
		delta := ints[i] - ints[i-1]
		runLen := int64(1)
		for i+int(runLen) < n && ints[i+int(runLen)]-ints[i+int(runLen)-1] == delta {
			runLen++
		}
		k = binary.PutVarint(scratch[:], runLen)
		buf.Write(scratch[:k])
		k = binary.PutVarint(scratch[:], delta)
		buf.Write(scratch[:k])
		i += int(runLen)
	}
	return buf.Bytes()
}

// rleDeltaDecode reverses rleDeltaEncode into an Ints vector of the block's
// n values (the decoded run values are the payload), boxed only when the
// non-NULL values are of more than one int-like kind.
func rleDeltaDecode(b []byte, n int) (*types.Vec, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("storage: truncated rle block")
	}
	if m := int(binary.LittleEndian.Uint32(b)); m != n {
		return nil, fmt.Errorf("storage: rle block of %d values in a %d-row block", m, n)
	}
	b = b[4:]
	nb := (n + 7) / 8
	if len(b) < nb {
		return nil, fmt.Errorf("storage: truncated rle bitmap")
	}
	nulls := b[:nb]
	b = b[nb:]
	rd := bytes.NewReader(b)
	kinds := make([]byte, n)
	for i := 0; i < n; {
		cnt, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("storage: bad kind run length: %w", err)
		}
		k, err := rd.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("storage: bad kind byte: %w", err)
		}
		for j := uint64(0); j < cnt && i < n; j++ {
			kinds[i] = k
			i++
		}
	}
	v := &types.Vec{Kind: types.KindInt, Ints: make([]int64, n)}
	if n == 0 {
		return v, nil
	}
	ints := v.Ints
	var err error
	if ints[0], err = binary.ReadVarint(rd); err != nil {
		return nil, fmt.Errorf("storage: bad rle first value: %w", err)
	}
	for i := 1; i < n; {
		runLen, err := binary.ReadVarint(rd)
		if err != nil {
			return nil, fmt.Errorf("storage: bad rle run length: %w", err)
		}
		delta, err := binary.ReadVarint(rd)
		if err != nil {
			return nil, fmt.Errorf("storage: bad rle delta: %w", err)
		}
		for j := int64(0); j < runLen && i < n; j++ {
			ints[i] = ints[i-1] + delta
			i++
		}
	}
	first, mixed := types.KindNull, false
	for i := 0; i < n; i++ {
		if nulls[i/8]&(1<<(i%8)) != 0 {
			v.SetNull(i)
		} else if k := types.Kind(kinds[i]); first == types.KindNull {
			first = k
		} else if k != first {
			mixed = true
		}
	}
	if !mixed {
		if first == types.KindBool || first == types.KindDate {
			v.Kind = first
		}
		return v, nil
	}
	boxed := &types.Vec{Boxed: make([]types.Datum, n)}
	for i := range boxed.Boxed {
		if !v.Null(i) {
			boxed.Boxed[i] = boxDatum(types.Kind(kinds[i]), uint64(ints[i]), nil)
		}
	}
	return boxed, nil
}

// zlibWriters recycles deflate writers: a new one allocates ~850 KB of
// state, far more than the block it compresses.
var zlibWriters = sync.Pool{New: func() any { return zlib.NewWriter(nil) }}

// zlibCompress deflates b into a fresh buffer, which the sealed block keeps:
// only the writer goes back to the pool.
func zlibCompress(b []byte) []byte {
	var buf bytes.Buffer
	w := zlibWriters.Get().(*zlib.Writer)
	w.Reset(&buf)
	_, _ = w.Write(b)
	_ = w.Close()
	zlibWriters.Put(w)
	return buf.Bytes()
}

func zlibDecompress(b []byte) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// compressBlock seals a column vector under the chosen codec. It returns the
// stored bytes and the codec actually used (RLE falls back to zlib for
// non-integer columns).
func compressBlock(codec Compression, vals []types.Datum) ([]byte, Compression) {
	switch codec {
	case CompressionRLEDelta:
		if allIntLike(vals) {
			return rleDeltaEncode(vals), CompressionRLEDelta
		}
		return zlibCompress(encodeDatums(vals)), CompressionZlib
	case CompressionZlib:
		return zlibCompress(encodeDatums(vals)), CompressionZlib
	default:
		return encodeDatums(vals), CompressionNone
	}
}

// decompressBlock reverses compressBlock.
func decompressBlock(codec Compression, data []byte, n int) (*types.Vec, error) {
	switch codec {
	case CompressionRLEDelta:
		return rleDeltaDecode(data, n)
	case CompressionZlib:
		raw, err := zlibDecompress(data)
		if err != nil {
			return nil, err
		}
		return decodeVec(raw, n)
	default:
		return decodeVec(data, n)
	}
}
