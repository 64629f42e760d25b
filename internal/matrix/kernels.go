package matrix

// Cache-blocked, goroutine-parallel matrix product kernels.
//
// Determinism contract: every kernel accumulates each output element in
// exactly the same order as the serial reference loop (ascending inner
// index, one accumulator per element), and parallel workers own disjoint
// bands of output rows. Blocking and banding change which elements are
// computed together, never the order or grouping of any floating-point
// addition, so the result is bitwise identical to the serial reference —
// and to the pre-blocking implementations of Mul/MulATB/MulABT — for
// every worker count and block size. Workers is a pure throughput knob.

import (
	"fmt"

	"anchor/internal/floats"
	"anchor/internal/parallel"
)

const (
	// parMinFlops is the approximate multiply-add count below which a
	// product runs serially: spawning goroutines costs more than the
	// arithmetic saved (d-by-d products in Procrustes, tiny grids).
	parMinFlops = 1 << 15
	// mulKBlock is the stripe of a's columns (= rows of b) one pass of
	// Mul streams, sized so the stripe of b rows stays cache-resident
	// while it is reused across the band's output rows.
	mulKBlock = 128
	// abtJBlock is the tile of b rows one pass of MulABT scores against
	// an output row band, keeping the tile hot across the band.
	abtJBlock = 64
)

// runBanded splits [0, rows) into one contiguous band per worker and runs
// band on up to workers goroutines (workers <= 0 selects all CPUs). Small
// problems (by flops) run serially on the calling goroutine. Bands are
// disjoint, so no synchronization beyond the final join is needed.
func runBanded(rows int, flops int, workers int, band func(parallel.Range)) {
	w := parallel.Workers(workers)
	if w > rows {
		w = rows
	}
	if w <= 1 || flops < parMinFlops {
		band(parallel.Range{Lo: 0, Hi: rows})
		return
	}
	bands := parallel.Ranges(rows, w)
	parallel.Run(w, len(bands), func(s int) {
		if bands[s].Len() > 0 {
			band(bands[s])
		}
	}, nil)
}

// MulWorkers returns a*b computed on up to workers goroutines
// (workers <= 0 selects all CPUs). The result is bitwise identical for
// every worker count.
func MulWorkers(a, b *Dense, workers int) *Dense {
	return MulInto(NewDense(a.Rows, b.Cols), a, b, workers)
}

// MulInto computes a*b into dst and returns dst, overwriting its previous
// contents. dst must be a.Rows-by-b.Cols and must not alias a or b.
// Reusing dst across calls keeps hot loops allocation-free.
func MulInto(dst, a, b *Dense, workers int) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %d vs %d", a.Cols, b.Rows))
	}
	checkDst(dst, a.Rows, b.Cols)
	floats.Fill(dst.Data, 0)
	runBanded(a.Rows, a.Rows*a.Cols*b.Cols, workers, func(band parallel.Range) {
		// Stream b's rows in k-stripes: one stripe stays cache-resident
		// while every output row of the band accumulates against it. Per
		// element the adds still happen in ascending k, matching the
		// serial ikj loop bit for bit.
		for k0 := 0; k0 < a.Cols; k0 += mulKBlock {
			k1 := k0 + mulKBlock
			if k1 > a.Cols {
				k1 = a.Cols
			}
			for i := band.Lo; i < band.Hi; i++ {
				arow := a.Row(i)[k0:k1]
				orow := dst.Row(i)
				for kk, av := range arow {
					if av == 0 {
						continue
					}
					floats.Axpy(av, b.Row(k0+kk), orow)
				}
			}
		}
	})
	return dst
}

// MulATBWorkers returns aᵀ*b without materializing aᵀ, computed on up to
// workers goroutines (workers <= 0 selects all CPUs). The result is
// bitwise identical for every worker count.
func MulATBWorkers(a, b *Dense, workers int) *Dense {
	return MulATBInto(NewDense(a.Cols, b.Cols), a, b, workers)
}

// MulATBInto computes aᵀ*b into dst and returns dst, overwriting its
// previous contents. dst must be a.Cols-by-b.Cols and must not alias a
// or b.
func MulATBInto(dst, a, b *Dense, workers int) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("matrix: MulATB row mismatch %d vs %d", a.Rows, b.Rows))
	}
	checkDst(dst, a.Cols, b.Cols)
	floats.Fill(dst.Data, 0)
	runBanded(a.Cols, a.Rows*a.Cols*b.Cols, workers, func(band parallel.Range) {
		// Each band owns output rows [Lo, Hi) — a contiguous slice of a's
		// columns. Streaming r keeps b.Row(r) hot across the band, and
		// every output element still accumulates in ascending r, matching
		// the serial reference bit for bit.
		for r := 0; r < a.Rows; r++ {
			arow := a.Row(r)
			brow := b.Row(r)
			for i := band.Lo; i < band.Hi; i++ {
				if av := arow[i]; av != 0 {
					floats.Axpy(av, brow, dst.Row(i))
				}
			}
		}
	})
	return dst
}

// MulABTWorkers returns a*bᵀ without materializing bᵀ, computed on up to
// workers goroutines (workers <= 0 selects all CPUs). The result is
// bitwise identical for every worker count.
func MulABTWorkers(a, b *Dense, workers int) *Dense {
	return MulABTInto(NewDense(a.Rows, b.Rows), a, b, workers)
}

// MulABTInto computes a*bᵀ into dst and returns dst, overwriting its
// previous contents. dst must be a.Rows-by-b.Rows and must not alias a
// or b. This is the workhorse of the batched k-NN engine and the query
// read path, which reuse dst across query blocks.
//
// The inner loops interleave independent output elements — four a-rows
// against one streamed b-row when the band is tall enough, four b-rows
// against one a-row otherwise — which hides floating-point add latency
// behind four independent accumulator chains and lets one load of a
// b-row serve four queries. Every output element still accumulates with
// its own single accumulator in ascending k, exactly the serial Dot
// order, so results stay bitwise identical to the reference loop (and to
// every other batch shape) for every worker count.
func MulABTInto(dst, a, b *Dense, workers int) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulABT col mismatch %d vs %d", a.Cols, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows)
	runBanded(a.Rows, a.Rows*a.Cols*b.Rows, workers, func(band parallel.Range) {
		// Tile b's rows so a tile is scored against every row of the band
		// while cache-hot.
		for j0 := 0; j0 < b.Rows; j0 += abtJBlock {
			j1 := min(j0+abtJBlock, b.Rows)
			abtTile(dst, a, band.Lo, band.Hi, &Dense{Rows: j1 - j0, Cols: b.Cols, Data: b.Data[j0*b.Cols : j1*b.Cols]}, j0)
		}
	})
	return dst
}

// abtTile is MulABTInto's micro-kernel: it scores a's rows [lo, hi)
// against the tile bt, whose row t holds b's row j0+t, writing dst
// columns [j0, j0+bt.Rows). The packed-code kernel runs it on tiles it
// has just decoded to float64.
func abtTile(dst, a *Dense, lo, hi int, bt *Dense, j0 int) {
	j1 := j0 + bt.Rows
	brow := func(j int) []float64 { return bt.Row(j - j0) }
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		o0, o1, o2, o3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		j := j0
		for ; j+2 <= j1; j += 2 {
			b0 := brow(j)
			// Reslicing to b0's length eliminates bounds checks in the
			// hot loop below.
			b1 := brow(j + 1)[:len(b0):len(b0)]
			x0, x1, x2, x3 := a0[:len(b0):len(b0)], a1[:len(b0):len(b0)], a2[:len(b0):len(b0)], a3[:len(b0):len(b0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k, bv0 := range b0 {
				bv1 := b1[k]
				v0, v1, v2, v3 := x0[k], x1[k], x2[k], x3[k]
				s00 += v0 * bv0
				s01 += v0 * bv1
				s10 += v1 * bv0
				s11 += v1 * bv1
				s20 += v2 * bv0
				s21 += v2 * bv1
				s30 += v3 * bv0
				s31 += v3 * bv1
			}
			o0[j], o0[j+1] = s00, s01
			o1[j], o1[j+1] = s10, s11
			o2[j], o2[j+1] = s20, s21
			o3[j], o3[j+1] = s30, s31
		}
		for ; j < j1; j++ {
			b0 := brow(j)
			var s0, s1, s2, s3 float64
			for k, bv := range b0 {
				s0 += a0[k] * bv
				s1 += a1[k] * bv
				s2 += a2[k] * bv
				s3 += a3[k] * bv
			}
			o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0, b1, b2, b3 := brow(j), brow(j+1), brow(j+2), brow(j+3)
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < j1; j++ {
			orow[j] = floats.Dot(arow, brow(j))
		}
	}
}

func checkDst(dst *Dense, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("matrix: dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, rows, cols))
	}
}
