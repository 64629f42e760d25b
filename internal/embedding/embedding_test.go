package embedding

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"anchor/internal/matrix"
)

func randomEmbedding(n, d int, seed int64) *Embedding {
	rng := rand.New(rand.NewSource(seed))
	e := New(n, d)
	for i := range e.Vectors.Data {
		e.Vectors.Data[i] = rng.NormFloat64()
	}
	return e
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := randomEmbedding(7, 3, 1)
	e.Words = []string{"a", "b", "c", "d", "e", "f", "g"}
	e.Meta = Meta{Algorithm: "cbow", Corpus: "wiki17", Dim: 3, Seed: 9, Precision: 32}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 7 || got.Dim() != 3 {
		t.Fatalf("shape %dx%d", got.Rows(), got.Dim())
	}
	for i := range e.Vectors.Data {
		if got.Vectors.Data[i] != e.Vectors.Data[i] {
			t.Fatal("data mismatch after round trip")
		}
	}
	if got.Meta != e.Meta {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, e.Meta)
	}
	if got.Words[6] != "g" {
		t.Fatal("words mismatch")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "emb.gob")
	e := randomEmbedding(4, 2, 2)
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 4 || got.Dim() != 2 {
		t.Fatal("file round trip shape mismatch")
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("expected error for corrupt input")
	}
}

func TestAlignToRecoversRotation(t *testing.T) {
	ref := randomEmbedding(30, 4, 3)
	// Rotate ref by a random orthogonal matrix; AlignTo must undo it.
	rng := rand.New(rand.NewSource(4))
	svd := matrix.ComputeSVD(matrix.NewDenseRand(4, 4, 1, rng))
	rot := matrix.MulABT(svd.U, svd.V)
	e := &Embedding{Vectors: matrix.Mul(ref.Vectors, rot)}
	e.AlignTo(ref)
	diff := e.Vectors.Clone().Sub(ref.Vectors).FrobNorm()
	if diff > 1e-8 {
		t.Fatalf("alignment residual %v", diff)
	}
}

func TestAlignToNeverHurts(t *testing.T) {
	ref := randomEmbedding(20, 5, 5)
	e := randomEmbedding(20, 5, 6)
	before := e.Vectors.Clone().Sub(ref.Vectors).FrobNorm()
	e.AlignTo(ref)
	after := e.Vectors.Clone().Sub(ref.Vectors).FrobNorm()
	if after > before+1e-9 {
		t.Fatalf("alignment increased distance: %v -> %v", before, after)
	}
}

func TestSubRows(t *testing.T) {
	e := randomEmbedding(5, 2, 7)
	e.Words = []string{"v", "w", "x", "y", "z"}
	s := e.SubRows([]int{3, 0})
	if s.Rows() != 2 || s.Words[0] != "y" || s.Words[1] != "v" {
		t.Fatalf("SubRows wrong: %+v", s.Words)
	}
	for j := 0; j < 2; j++ {
		if s.Vectors.At(0, j) != e.Vectors.At(3, j) {
			t.Fatal("SubRows vector mismatch")
		}
	}
}

func TestMemoryBitsPerWord(t *testing.T) {
	e := randomEmbedding(3, 100, 8)
	if e.MemoryBitsPerWord() != 3200 {
		t.Fatalf("default precision should be 32: %d", e.MemoryBitsPerWord())
	}
	e.Meta.Precision = 4
	if e.MemoryBitsPerWord() != 400 {
		t.Fatal("4-bit precision memory wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := randomEmbedding(3, 3, 9)
	c := e.Clone()
	c.Vectors.Set(0, 0, math.Pi)
	if e.Vectors.At(0, 0) == math.Pi {
		t.Fatal("Clone shares storage")
	}
}

func TestMetaString(t *testing.T) {
	m := Meta{Algorithm: "mc", Corpus: "wiki18", Dim: 64, Seed: 2, Precision: 8}
	if m.String() != "mc-wiki18-d64-s2-b8" {
		t.Fatalf("Meta.String = %q", m.String())
	}
}

// TestPackedCodesNotCarriedPastChange: the packed form describes Vectors
// as decoded, so neither a rotation nor either encoding's round trip may
// hand it on.
func TestPackedCodesNotCarriedPastChange(t *testing.T) {
	e := New(2, 2)
	e.Vectors.Data = []float64{-1, 1, 1, -1}
	codes, err := matrix.NewCodesFromDense(e.Vectors, []float64{-1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPackedCodes(codes)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.PackedCodes() != nil || e.Clone().PackedCodes() != nil {
		t.Fatal("packed codes survived a gob round trip or a clone")
	}
	e.AlignTo(randomEmbedding(2, 2, 1))
	if e.PackedCodes() != nil {
		t.Fatal("packed codes survived AlignTo")
	}
}
