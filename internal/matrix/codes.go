package matrix

// Packed code-matrix representation for b-bit uniformly quantized rows
// (b in 1..8). A Codes matrix stores each entry as an index into a shared
// table of 2^b decode levels, packed LSB-first into bytes with rows
// aligned to byte boundaries — 8 to 64 entries per 8 bytes of float64.
//
// Scoring works on tiles of codeTile candidate rows. Each tile is first
// unpacked to one byte per code (table-driven at b = 1, 2, 4; a no-op at
// b = 8, whose packed rows already are one byte per code). What happens
// next depends on how many query rows the call scores — a property of
// the input, not a tuning knob:
//
//   - fewer than lutRows query rows: each query row's d·2^b product table
//     lut[k][v] = q[k]·level[v] (pooled, never allocated per call) is
//     summed along four interleaved candidate rows at a time;
//   - lutRows or more: the tile is decoded to float64 and scored by
//     MulABTInto's own micro-kernel, reused across every query row.
//
// Either way each product is q[k]·level[code], the exact float64
// multiplication the dequantized reference performs, and each output
// element keeps one float64 accumulator in ascending k, so results are
// bitwise identical to MulABTInto against the dequantized rows — for
// every worker count, batch shape, and bit width.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"anchor/internal/parallel"
)

const (
	// codeTile is the number of candidate rows the packed kernel unpacks
	// and scores as one tile (the float64 kernel's tile height).
	codeTile = abtJBlock
	// lutRows is the query-block height from which the packed kernel
	// decodes tiles to float64: one decode then serves at least four
	// query rows through the register-blocked micro-kernel, while fewer
	// rows are cheaper to score by table lookup.
	lutRows = 4
	// dequantChunk is the number of codes DequantizeRow unpacks at a
	// time; 64 codes end on a byte boundary at every bit width.
	dequantChunk = 64
)

// Codes is a rows-by-cols matrix of b-bit level indices with its decode
// table. Data holds rows*RowBytes bytes; row i occupies
// Data[i*RowBytes:(i+1)*RowBytes], codes packed LSB-first, and the
// unused high bits of a row's last byte are zero.
type Codes struct {
	Rows, Cols int
	Bits       int       // bits per code, 1..8
	Levels     []float64 // 2^Bits decode levels, strictly ascending
	RowBytes   int       // bytes per packed row: ceil(Cols*Bits/8)
	Data       []byte
}

// CheckLevels returns an error unless bits is in 1..8 and levels has
// exactly 2^bits strictly ascending entries — the decode tables Codes
// accepts. A quantization clip so small that float32 rounding merges
// levels yields no valid table.
func CheckLevels(bits int, levels []float64) error {
	if bits < 1 || bits > 8 {
		return fmt.Errorf("matrix: Codes bits %d out of range 1..8", bits)
	}
	if len(levels) != 1<<uint(bits) {
		return fmt.Errorf("matrix: Codes wants %d levels, got %d", 1<<uint(bits), len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if !(levels[i] > levels[i-1]) {
			return fmt.Errorf("matrix: Codes levels not strictly ascending at %d", i)
		}
	}
	return nil
}

// NewCodes returns a zeroed code matrix with the given shape and decode
// table. It panics when CheckLevels rejects bits and levels.
func NewCodes(rows, cols, bits int, levels []float64) *Codes {
	if err := CheckLevels(bits, levels); err != nil {
		panic(err.Error())
	}
	rowBytes := (cols*bits + 7) / 8
	return &Codes{
		Rows: rows, Cols: cols, Bits: bits,
		Levels:   append([]float64(nil), levels...),
		RowBytes: rowBytes,
		Data:     make([]byte, rows*rowBytes),
	}
}

// levelIndex returns the index of v in the strictly ascending levels and
// whether v is exactly one of them. Quantization grids (compress.Levels)
// are uniform up to float32 rounding, so the index is computed from the
// first level and the mean step and confirmed by an exact comparison;
// binary search runs only on a miss (a non-uniform table, or v off the
// grid).
func levelIndex(levels []float64, v float64) (int, bool) {
	n := len(levels)
	if n > 1 {
		if f := (v - levels[0]) / (levels[n-1] - levels[0]) * float64(n-1); f >= 0 && f < float64(n) {
			if i := int(f + 0.5); i < n && levels[i] == v {
				return i, true
			}
		}
	}
	i := sort.SearchFloat64s(levels, v)
	return i, i < n && levels[i] == v
}

// NewCodesFromDense packs m into b-bit codes over the given decode
// levels. Every value of m must be exactly one of the levels; the first
// value that is not yields an error (the matrix is not b-bit quantized
// on this grid, so a lossless code representation does not exist), as
// does a decode table CheckLevels rejects.
func NewCodesFromDense(m *Dense, levels []float64, bits int) (*Codes, error) {
	if err := CheckLevels(bits, levels); err != nil {
		return nil, err
	}
	c := NewCodes(m.Rows, m.Cols, bits, levels)
	for i := 0; i < m.Rows; i++ {
		for k, v := range m.Row(i) {
			idx, ok := levelIndex(c.Levels, v)
			if !ok {
				return nil, fmt.Errorf("matrix: value %v at (%d,%d) is not on the %d-bit level grid", v, i, k, bits)
			}
			c.set(i, k, uint8(idx))
		}
	}
	return c, nil
}

// CheckPadding returns an error naming the first row whose unused high
// bits (past the last code in its final byte) are not zero. Every reader
// masks those bits away, so they never reach a score; the check keeps
// codes taken from outside input byte-identical to what NewCodesFromDense
// produces for the same values (the canonical form).
func (c *Codes) CheckPadding() error {
	used := uint(c.Cols*c.Bits) & 7
	if used == 0 {
		return nil
	}
	for i := 0; i < c.Rows; i++ {
		if c.Data[(i+1)*c.RowBytes-1]>>used != 0 {
			return fmt.Errorf("matrix: row %d has nonzero padding bits", i)
		}
	}
	return nil
}

// set stores code at entry (i, k). Codes are packed LSB-first: entry k of
// a row occupies bits [k*Bits, (k+1)*Bits) of the row's bit stream.
func (c *Codes) set(i, k int, code uint8) {
	row := c.Data[i*c.RowBytes : (i+1)*c.RowBytes]
	off := k * c.Bits
	bi, sh := off>>3, uint(off&7)
	row[bi] |= code << sh
	if spill := sh + uint(c.Bits); spill > 8 {
		row[bi+1] |= code >> (8 - sh)
	}
}

// At returns the code at entry (i, k).
func (c *Codes) At(i, k int) uint8 {
	row := c.Data[i*c.RowBytes : (i+1)*c.RowBytes]
	off := k * c.Bits
	bi, sh := off>>3, uint(off&7)
	v := uint16(row[bi])
	if sh+uint(c.Bits) > 8 {
		v |= uint16(row[bi+1]) << 8
	}
	return uint8(v>>sh) & uint8(1<<uint(c.Bits)-1)
}

// Byte-expansion tables for the widths whose codes never straddle a byte:
// entry v holds the 8/b codes of packed byte v, one per output byte,
// little-endian.
var unpack1, unpack2, unpack4 = func() (t1 [256]uint64, t2 [256]uint64, t4 [256]uint64) {
	for v := range 256 {
		for t := range 8 {
			t1[v] |= uint64(v>>t&1) << (8 * t)
		}
		for t := range 4 {
			t2[v] |= uint64(v>>(2*t)&3) << (8 * t)
		}
		t4[v] = uint64(v&15) | uint64(v>>4)<<8
	}
	return
}()

// unpackCodes expands the first n codes of the packed b-bit stream src
// into dst[:n], one byte per code. Every 8 codes span exactly b source
// bytes and land in one 8-byte store; codes past the last full group are
// extracted one at a time.
func unpackCodes(dst, src []byte, n, bits int) {
	dst = dst[:n]
	groups := n / 8
	switch bits {
	case 8:
		copy(dst, src[:n])
		return
	case 1:
		for g, v := range src[:groups] {
			binary.LittleEndian.PutUint64(dst[8*g:], unpack1[v])
		}
	case 2:
		for g := range groups {
			s := src[2*g : 2*g+2]
			binary.LittleEndian.PutUint64(dst[8*g:], unpack2[s[0]]|unpack2[s[1]]<<32)
		}
	case 4:
		for g := range groups {
			s := src[4*g : 4*g+4]
			binary.LittleEndian.PutUint64(dst[8*g:],
				unpack4[s[0]]|unpack4[s[1]]<<16|unpack4[s[2]]<<32|unpack4[s[3]]<<48)
		}
	default:
		groups = 0
	}
	// The tail (and every code of the widths that straddle bytes) streams
	// through a bit buffer.
	var buf, nbits uint
	mask := uint(1)<<uint(bits) - 1
	bi := groups * bits
	for k := groups * 8; k < n; k++ {
		for nbits < uint(bits) {
			buf |= uint(src[bi]) << nbits
			bi++
			nbits += 8
		}
		dst[k] = byte(buf & mask)
		buf >>= uint(bits)
		nbits -= uint(bits)
	}
}

// unpackTile expands candidate rows [j0, j1) to one byte per code, row
// stride Cols, into buf and returns the tile. At 8 bits the packed rows
// already have that layout, so the tile is a subslice of Data.
func (c *Codes) unpackTile(buf []byte, j0, j1 int) []byte {
	if c.Bits == 8 {
		return c.Data[j0*c.RowBytes : j1*c.RowBytes]
	}
	tile := buf[:(j1-j0)*c.Cols]
	for j := j0; j < j1; j++ {
		unpackCodes(tile[(j-j0)*c.Cols:], c.Data[j*c.RowBytes:(j+1)*c.RowBytes], c.Cols, c.Bits)
	}
	return tile
}

// decodeCodes writes levels[codes[k]] into dst[k] for every code.
func decodeCodes(dst []float64, codes []byte, levels []float64) {
	dst = dst[:len(codes)]
	for k, code := range codes {
		dst[k] = levels[code]
	}
}

// DequantizeRow writes row i decoded through the level table into dst
// (length Cols).
func (c *Codes) DequantizeRow(i int, dst []float64) {
	row := c.Data[i*c.RowBytes : (i+1)*c.RowBytes]
	var buf [dequantChunk]byte
	for k0 := 0; k0 < c.Cols; k0 += dequantChunk {
		n := min(dequantChunk, c.Cols-k0)
		unpackCodes(buf[:], row[k0*c.Bits/8:], n, c.Bits)
		decodeCodes(dst[k0:k0+n], buf[:n], c.Levels)
	}
}

// Dense returns the fully dequantized float64 matrix — the reference
// representation golden tests score against.
func (c *Codes) Dense() *Dense {
	out := NewDense(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		c.DequantizeRow(i, out.Row(i))
	}
	return out
}

// SizeBytes returns the packed payload size.
func (c *Codes) SizeBytes() int { return len(c.Data) }

// codeScratch holds one packed-kernel call's working buffers: the
// unpacked tile, its float64 decode, and the per-query product tables.
type codeScratch struct {
	tile []byte
	ft   []float64
	lut  []float64
}

var codeScratchPool = sync.Pool{New: func() any { return new(codeScratch) }}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// MulABTIntoLUT computes a*bᵀ into dst for float64 query rows a against
// packed candidate rows b, and returns dst. dst must be a.Rows-by-b.Rows
// and must not alias a. The candidate rows are split into tiles of
// codeTile rows, and the tiles into one contiguous band per worker, so
// each tile is unpacked once and every band owns disjoint output
// columns; see the file comment for how a tile is scored. Results are
// bitwise identical to MulABTInto(dst, a, b.Dense()) for every worker
// count.
func MulABTIntoLUT(dst, a *Dense, b *Codes, workers int) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulABTLUT col mismatch %d vs %d", a.Cols, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows)
	// This is runBanded over tiles, spelled out: runBanded's band func
	// escapes, so a closure passed to it would cost a heap allocation on
	// every call, serial ones included (TestMulABTIntoLUTAllocs).
	tiles := (b.Rows + codeTile - 1) / codeTile
	w := min(parallel.Workers(workers), tiles)
	if w <= 1 || a.Rows*a.Cols*b.Rows < parMinFlops {
		scoreCodeTiles(dst, a, b, 0, b.Rows)
		return dst
	}
	bands := parallel.Ranges(tiles, w)
	parallel.Run(w, len(bands), func(s int) {
		if bands[s].Len() > 0 {
			scoreCodeTiles(dst, a, b, bands[s].Lo*codeTile, min(bands[s].Hi*codeTile, b.Rows))
		}
	}, nil)
	return dst
}

// scoreCodeTiles scores every query row of a against candidate rows
// [lo, hi) of b, writing dst columns [lo, hi).
func scoreCodeTiles(dst, a *Dense, b *Codes, lo, hi int) {
	sc := codeScratchPool.Get().(*codeScratch)
	defer codeScratchPool.Put(sc)
	d := a.Cols
	sc.tile = grow(sc.tile, codeTile*d)
	if a.Rows >= lutRows {
		sc.ft = grow(sc.ft, codeTile*d)
		for j0 := lo; j0 < hi; j0 += codeTile {
			j1 := min(j0+codeTile, hi)
			bt := Dense{Rows: j1 - j0, Cols: d, Data: sc.ft[:(j1-j0)*d]}
			decodeCodes(bt.Data, b.unpackTile(sc.tile, j0, j1), b.Levels)
			abtTile(dst, a, 0, a.Rows, &bt, j0)
		}
		return
	}
	// Each query row's table holds d rows of 2^b products. The trailing
	// slack lets lutTile view every table row as a [256]float64 whatever
	// the width — codes never index past 2^b — so its lookups carry no
	// bounds checks.
	nlv := len(b.Levels)
	stride := d * nlv
	sc.lut = grow(sc.lut, a.Rows*stride+256)
	for i := 0; i < a.Rows; i++ {
		lut := sc.lut[i*stride : (i+1)*stride]
		for k, qv := range a.Row(i) {
			row := lut[k*nlv : (k+1)*nlv]
			for v, lvl := range b.Levels {
				row[v] = qv * lvl
			}
		}
	}
	for j0 := lo; j0 < hi; j0 += codeTile {
		j1 := min(j0+codeTile, hi)
		tile := b.unpackTile(sc.tile, j0, j1)
		for i := 0; i < a.Rows; i++ {
			lutTile(dst.Row(i)[j0:j1], sc.lut[i*stride:], tile, d, nlv)
		}
	}
}

// lutTile sums one query row's product table (row k at lut[k*nlv:], with
// at least 256 entries readable from each row start) along each unpacked
// candidate row of tile (row stride d) into out, four candidate rows at a
// time so four independent accumulator chains hide the add latency. Each
// sum runs in ascending k with a single accumulator.
func lutTile(out, lut []float64, tile []byte, d, nlv int) {
	j := 0
	for ; j+4 <= len(out); j += 4 {
		out[j], out[j+1], out[j+2], out[j+3] = lutSum4(lut, nlv,
			tile[j*d:(j+1)*d], tile[(j+1)*d:(j+2)*d], tile[(j+2)*d:(j+3)*d], tile[(j+3)*d:(j+4)*d])
	}
	for ; j < len(out); j++ {
		var s float64
		t := lut
		for _, x := range tile[j*d : (j+1)*d] {
			s += (*[256]float64)(t[:256])[x]
			t = t[nlv:]
		}
		out[j] = s
	}
}

// lutSum4 returns the table sums of four equal-length code rows. It is
// its own function so the hot loop's working set fits in registers.
func lutSum4(lut []float64, nlv int, c0, c1, c2, c3 []byte) (s0, s1, s2, s3 float64) {
	c1, c2, c3 = c1[:len(c0)], c2[:len(c0)], c3[:len(c0)]
	for k, x0 := range c0 {
		t := (*[256]float64)(lut[:256])
		s0 += t[x0]
		s1 += t[c1[k]]
		s2 += t[c2[k]]
		s3 += t[c3[k]]
		lut = lut[nlv:]
	}
	return
}
