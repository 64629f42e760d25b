package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randDense32Exact returns a float64 matrix whose every value is exactly
// float32-representable, plus its narrowed copy — the precondition under
// which Dense32 serving is lossless.
func randDense32Exact(rows, cols int, seed int64) (*Dense, *Dense32) {
	rng := rand.New(rand.NewSource(seed))
	wide := NewDense(rows, cols)
	for i := range wide.Data {
		wide.Data[i] = float64(float32(rng.NormFloat64()))
	}
	return wide, NewDense32From(wide)
}

// randLevels returns 2^bits strictly ascending float32-exact levels, the
// shape compress.Levels produces.
func randLevels(bits int, clip float64) []float64 {
	n := 1 << uint(bits)
	step := 2 * clip / float64(n-1)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(float32(float64(i)*step - clip))
	}
	return out
}

// randCodes returns a code matrix with uniformly random codes.
func randCodes(rows, cols, bits int, seed int64) *Codes {
	rng := rand.New(rand.NewSource(seed))
	c := NewCodes(rows, cols, bits, randLevels(bits, 1.5))
	for i := 0; i < rows; i++ {
		for k := 0; k < cols; k++ {
			c.set(i, k, uint8(rng.Intn(1<<uint(bits))))
		}
	}
	return c
}

func sameBits(t *testing.T, got, want *Dense, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMulABTInto32GoldenBitEquality: the float32 kernel must be bitwise
// identical to the float64 kernel on widened inputs for every worker
// count and shape (including the 4x2 remainder edges).
func TestMulABTInto32GoldenBitEquality(t *testing.T) {
	shapes := []struct{ m, n, d int }{
		{1, 1, 1}, {3, 5, 7}, {4, 2, 8}, {5, 67, 16}, {9, 130, 33}, {70, 70, 24},
	}
	for _, sh := range shapes {
		aWide, a32 := randDense32Exact(sh.m, sh.d, int64(sh.m*1000+sh.n))
		bWide, b32 := randDense32Exact(sh.n, sh.d, int64(sh.n*1000+sh.d))
		want := MulABTWorkers(aWide, bWide, 1)
		for _, workers := range []int{1, 2, 3, 8} {
			got := MulABTInto32(NewDense(sh.m, sh.n), a32, b32, workers)
			sameBits(t, got, want, "MulABTInto32")
		}
	}
}

func TestCodesPackRoundTrip(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		for _, cols := range []int{1, 3, 8, 13, 64} {
			c := randCodes(5, cols, bits, int64(bits*100+cols))
			rng := rand.New(rand.NewSource(int64(bits*100 + cols)))
			dst := make([]float64, cols)
			for i := 0; i < c.Rows; i++ {
				c.DequantizeRow(i, dst)
				for k := 0; k < cols; k++ {
					want := uint8(rng.Intn(1 << uint(bits)))
					if got := c.At(i, k); got != want {
						t.Fatalf("bits=%d cols=%d: At(%d,%d)=%d, want %d", bits, cols, i, k, got, want)
					}
					if dst[k] != c.Levels[c.At(i, k)] {
						t.Fatalf("bits=%d: DequantizeRow(%d)[%d] = %v, want level %v", bits, i, k, dst[k], c.Levels[c.At(i, k)])
					}
				}
			}
		}
	}
}

func TestNewCodesFromDenseRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 3, 4, 8} {
		c := randCodes(7, 13, bits, int64(bits))
		dense := c.Dense()
		back, err := NewCodesFromDense(dense, c.Levels, bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		for i := range c.Data {
			if back.Data[i] != c.Data[i] {
				t.Fatalf("bits=%d: packed byte %d differs", bits, i)
			}
		}
	}
}

func TestNewCodesFromDenseRejectsOffGrid(t *testing.T) {
	m := NewDense(2, 2)
	m.Data = []float64{-1, 1, 0.3, -1} // 0.3 is not a 1-bit level
	if _, err := NewCodesFromDense(m, []float64{-1, 1}, 1); err == nil {
		t.Fatal("expected error for off-grid value")
	}
	m.Data = []float64{0, 0, 0, 0}
	if _, err := NewCodesFromDense(m, []float64{0, 0}, 1); err == nil {
		t.Fatal("expected error for a level table that is not strictly ascending")
	}
}

// TestMulABTIntoLUTGoldenBitEquality: LUT scoring of packed codes must be
// bitwise identical to the float64 kernel against the dequantized rows,
// for every bit width, worker count, and shape. The shape grid straddles
// the candidate tile (n around 64 and two tiles plus one), the
// four-query switch between table lookup and tile decode, and the
// four-candidate interleave with its remainders; the two wide shapes
// carry enough work to take the parallel path.
func TestMulABTIntoLUTGoldenBitEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type shape struct{ m, n, d int }
	shapes := []shape{{1, 1, 1}, {3, 9, 13}, {6, 70, 32}, {1, 400, 100}, {5, 400, 100}}
	for _, n := range []int{63, 64, 65, 130} {
		for _, m := range []int{1, 2, 3, 4, 5, 8} {
			for _, d := range []int{1, 7, 13, 100} {
				shapes = append(shapes, shape{m, n, d})
			}
		}
	}
	for bits := 1; bits <= 8; bits++ {
		for _, sh := range shapes {
			codes := randCodes(sh.n, sh.d, bits, int64(bits*1000+sh.n+sh.d))
			q := NewDense(sh.m, sh.d)
			for i := range q.Data {
				q.Data[i] = rng.NormFloat64()
			}
			want := MulABTWorkers(q, codes.Dense(), 1)
			for _, workers := range []int{1, 2, 3, 8} {
				got := MulABTIntoLUT(NewDense(sh.m, sh.n), q, codes, workers)
				sameBits(t, got, want, fmt.Sprintf("MulABTIntoLUT bits=%d %dx%dx%d workers=%d", bits, sh.m, sh.n, sh.d, workers))
			}
		}
	}
}

// TestMulABTIntoLUTAllocs: a warm single-query call on one worker runs
// entirely from pooled scratch — the 8-bit product table included.
func TestMulABTIntoLUTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	codes := randCodes(1000, 100, 8, 3)
	q := NewDense(1, 100)
	codes.DequantizeRow(7, q.Row(0))
	dst := NewDense(1, codes.Rows)
	if allocs := testing.AllocsPerRun(50, func() { MulABTIntoLUT(dst, q, codes, 1) }); allocs != 0 {
		t.Fatalf("MulABTIntoLUT allocates %v times per warm call, want 0", allocs)
	}
}

func TestLevelIndex(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		lv := randLevels(bits, 0.37)
		for want, v := range lv {
			if got, ok := levelIndex(lv, v); !ok || got != want {
				t.Fatalf("bits=%d: levelIndex(level %d) = %d, %v", bits, want, got, ok)
			}
		}
		for _, v := range []float64{-1, 1, (lv[0] + lv[1]) / 2, math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(lv[1], 0)} {
			if _, ok := levelIndex(lv, v); ok {
				t.Fatalf("bits=%d: off-grid %v reported on the grid", bits, v)
			}
		}
	}
	// A non-uniform table falls back to search.
	lv := []float64{-3, -1, 0, 5}
	for want, v := range lv {
		if got, ok := levelIndex(lv, v); !ok || got != want {
			t.Fatalf("non-uniform: levelIndex(%v) = %d, %v", v, got, ok)
		}
	}
}

func TestCheckPadding(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		for _, cols := range []int{1, 3, 8, 13} {
			c := randCodes(4, cols, bits, int64(bits+cols))
			if err := c.CheckPadding(); err != nil {
				t.Fatalf("bits=%d cols=%d: canonical codes rejected: %v", bits, cols, err)
			}
			if cols*bits%8 == 0 {
				continue
			}
			c.Data[3*c.RowBytes-1] |= 0x80
			if err := c.CheckPadding(); err == nil {
				t.Fatalf("bits=%d cols=%d: flipped pad bit accepted", bits, cols)
			}
		}
	}
}

// BenchmarkMulABTIntoLUT scores query blocks of 1, 2, 8 and 64 rows
// against |V| = 10k packed rows at d = 100 (the serving shape), one
// worker, at bits 1, 2, 4 and 8 — both sides of the four-query switch.
func BenchmarkMulABTIntoLUT(b *testing.B) {
	const n, d = 10000, 100
	for _, bits := range []int{1, 2, 4, 8} {
		codes := randCodes(n, d, bits, int64(bits))
		for _, m := range []int{1, 2, 8, 64} {
			q := NewDense(m, d)
			for i := 0; i < m; i++ {
				codes.DequantizeRow(i, q.Row(i))
			}
			dst := NewDense(m, n)
			b.Run(fmt.Sprintf("bits=%d/rows=%d", bits, m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MulABTIntoLUT(dst, q, codes, 1)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*m), "us/query")
			})
		}
	}
}
