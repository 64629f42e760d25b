package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"anchor/internal/compress"
	"anchor/internal/embedding"
	"anchor/internal/matrix"
)

// quantTestEmbedding returns a b-bit quantized embedding with metadata and
// vocabulary, built through the real compress path so its values sit on
// the (Clip, Precision) level grid exactly as production artifacts do.
func quantTestEmbedding(t *testing.T, rows, cols, bits int) *embedding.Embedding {
	t.Helper()
	e := binTestEmbedding(t, rows, cols, false)
	clip := compress.OptimalClip(e.Vectors.Data, bits)
	q := compress.Quantize(e, bits, clip)
	q.Meta.Algorithm, q.Meta.Corpus = "mc", "wiki17"
	return q
}

func TestQuantizedKindRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 4, 5, 8} {
		e := quantTestEmbedding(t, 17, 13, bits)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, e, Quantized); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		embEqualBits(t, e, got)
		f64 := buf.Len() - int(binary.LittleEndian.Uint64(buf.Bytes()[56:64]))
		if want := 17 * ((13*bits + 7) / 8); f64 != want {
			t.Fatalf("bits=%d: payload %d bytes, want %d", bits, f64, want)
		}
	}
}

func TestQuantizedKindRejectsOffGridEmbedding(t *testing.T) {
	e := binTestEmbedding(t, 4, 3, false) // full-precision values, no grid
	e.Meta.Precision, e.Meta.Clip = 4, 1.25
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Quantized); err == nil {
		t.Fatal("expected error writing off-grid values as quantized codes")
	}
	e.Meta.Precision, e.Meta.Clip = 32, 0
	if err := WriteBinary(&buf, e, Quantized); err == nil {
		t.Fatal("expected error writing full-precision embedding as quantized codes")
	}
}

func TestPickKindLosslessCascade(t *testing.T) {
	q := quantTestEmbedding(t, 9, 7, 4)
	if k := PickKind(q); k != Quantized {
		t.Fatalf("4-bit quantized artifact picked kind %d, want Quantized", k)
	}
	f32 := binTestEmbedding(t, 9, 7, true)
	if k := PickKind(f32); k != Float32 {
		t.Fatalf("float32-exact artifact picked kind %d, want Float32", k)
	}
	// 9..31-bit quantized artifacts are float32-exact but have no b<=8
	// code grid: they must fall to Float32, not Quantized.
	wide := binTestEmbedding(t, 9, 7, false)
	q16 := compress.Quantize(wide, 16, compress.OptimalClip(wide.Vectors.Data, 16))
	if k := PickKind(q16); k != Float32 {
		t.Fatalf("16-bit quantized artifact picked kind %d, want Float32", k)
	}
	if k := PickKind(wide); k != Float64 {
		t.Fatalf("full-precision artifact picked kind %d, want Float64", k)
	}
	// Whatever PickKind chooses must round-trip bitwise.
	for _, e := range []*embedding.Embedding{q, f32, q16, wide} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, e, PickKind(e)); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		embEqualBits(t, e, got)
	}
}

func TestDecodeBinaryVersion1Compat(t *testing.T) {
	// Hand-build a version-1 artifact (64-byte header, float64 payload) and
	// check the v2 reader still decodes it: existing disk caches must stay
	// readable across the format bump.
	e := binTestEmbedding(t, 5, 3, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Float64); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	payloadOff := int(binary.LittleEndian.Uint64(v2[56:64]))

	algo, corp := []byte(e.Meta.Algorithm), []byte(e.Meta.Corpus)
	words := []byte(strings.Join(e.Words, "\n"))
	varLen := len(algo) + len(corp) + len(words)
	v1Off := (binHeaderLenV1 + varLen + binAlign - 1) / binAlign * binAlign
	v1 := make([]byte, 0, v1Off+len(v2)-payloadOff)
	header := append([]byte(nil), v2[:binHeaderLenV1]...)
	binary.LittleEndian.PutUint32(header[4:8], 1)
	binary.LittleEndian.PutUint64(header[56:64], uint64(v1Off))
	v1 = append(v1, header...)
	v1 = append(v1, algo...)
	v1 = append(v1, corp...)
	v1 = append(v1, words...)
	v1 = append(v1, make([]byte, v1Off-binHeaderLenV1-varLen)...)
	v1 = append(v1, v2[payloadOff:]...)

	got, err := DecodeBinary(v1)
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, got)
}

func TestDecodeBinaryCorruptQuantizedHeader(t *testing.T) {
	e := quantTestEmbedding(t, 6, 5, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Quantized); err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		data := append([]byte(nil), buf.Bytes()...)
		if _, err := DecodeBinary(mutate(data)); err == nil {
			t.Fatalf("%s: decode accepted corrupt artifact", name)
		}
	}
	corrupt("code bits zero", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[72:76], 0)
		return d
	})
	corrupt("code bits over 8", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[72:76], 9)
		binary.LittleEndian.PutUint32(d[40:44], 9)
		return d
	})
	corrupt("code bits disagree with precision", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[40:44], 5)
		return d
	})
	corrupt("negative clip", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[64:72], math.Float64bits(-1))
		return d
	})
	corrupt("NaN clip", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[64:72], math.Float64bits(math.NaN()))
		return d
	})
	corrupt("truncated payload", func(d []byte) []byte { return d[:len(d)-1] })
	corrupt("quantized kind on v1 version stamp", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[4:8], 1)
		return d
	})
}

// TestDecodeBinaryRejectsNonCanonicalPadding: the carried codes must be
// byte-identical to the canonical packing of the decoded values, so a
// quantized payload whose row padding bits are not zero is corrupt even
// when its checksum vouches for the bytes — and in a version-2 artifact,
// which carries no checksum at all.
func TestDecodeBinaryRejectsNonCanonicalPadding(t *testing.T) {
	const rows, cols, bits = 6, 5, 3 // 15 bits per row: 1 pad bit
	e := quantTestEmbedding(t, rows, cols, bits)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Quantized); err != nil {
		t.Fatal(err)
	}
	payloadOff := int(binary.LittleEndian.Uint64(buf.Bytes()[56:64]))
	rowBytes := (cols*bits + 7) / 8
	flipPad := func() []byte {
		d := append([]byte(nil), buf.Bytes()...)
		d[payloadOff+3*rowBytes-1] |= 0x80 // row 2's last byte, top bit
		return d
	}

	v3 := flipPad()
	d := crc32.New(castagnoli)
	d.Write(v3[:76])
	d.Write([]byte{0, 0, 0, 0})
	d.Write(v3[80:])
	binary.LittleEndian.PutUint32(v3[76:80], d.Sum32())

	v2 := flipPad()
	binary.LittleEndian.PutUint32(v2[4:8], 2)
	binary.LittleEndian.PutUint32(v2[76:80], 0)

	for name, data := range map[string][]byte{"v3 with checksum recomputed": v3, "v2": v2} {
		if _, err := DecodeBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: decode err = %v, want ErrCorrupt", name, err)
		}
	}
	// The same v2 artifact without the flipped bit decodes.
	clean := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(clean[4:8], 2)
	binary.LittleEndian.PutUint32(clean[76:80], 0)
	got, err := DecodeBinary(clean)
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, got)
}

// TestDecodeBinaryCarriesPackedCodes: a quantized payload comes back as
// the embedding's packed codes, byte for byte what packing the decoded
// rows yields, in a buffer of their own; other kinds carry none.
func TestDecodeBinaryCarriesPackedCodes(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8} {
		e := quantTestEmbedding(t, 9, 13, bits)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, e, Quantized); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		c := got.PackedCodes()
		if c == nil {
			t.Fatalf("bits=%d: quantized decode carries no codes", bits)
		}
		want, err := matrix.NewCodesFromDense(got.Vectors, compress.Levels(got.Meta.Clip, bits), bits)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Data, want.Data) || c.Bits != bits || c.Rows != 9 || c.Cols != 13 {
			t.Fatalf("bits=%d: carried codes differ from packing the decoded rows", bits)
		}
		if len(c.Data) != cap(c.Data) || &c.Data[0] == &data[len(data)-len(c.Data)] {
			t.Fatalf("bits=%d: carried codes alias the artifact buffer", bits)
		}
	}
	f32, err := DecodeBinary(fuzzArtifact(4, 3, true, Float32))
	if err != nil {
		t.Fatal(err)
	}
	if f32.PackedCodes() != nil {
		t.Fatal("float32 decode carries codes")
	}
}

// TestDecodeBinaryRejectsDegenerateLevelGrid: a clip so small that its
// float32 levels merge describes no code grid, so no writer produced
// it; a version-2 artifact (no checksum) carrying one is corrupt rather
// than an embedding whose re-encode or load would trip over the grid.
func TestDecodeBinaryRejectsDegenerateLevelGrid(t *testing.T) {
	e := quantTestEmbedding(t, 4, 5, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Quantized); err != nil {
		t.Fatal(err)
	}
	d := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(d[4:8], 2)
	binary.LittleEndian.PutUint32(d[76:80], 0)
	binary.LittleEndian.PutUint64(d[64:72], math.Float64bits(1e-300))
	if _, err := DecodeBinary(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode err = %v, want ErrCorrupt", err)
	}
}
