package ply

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

func sampleCloud(n int, withColors, withNormals bool) *pointcloud.Cloud {
	rng := geom.NewRNG(77)
	c := &pointcloud.Cloud{}
	for i := 0; i < n; i++ {
		p := geom.V(rng.Range(-1, 1), rng.Range(0, 2), rng.Range(-1, 1))
		var col *pointcloud.Color
		if withColors {
			col = &pointcloud.Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		}
		var nm *geom.Vec3
		if withNormals {
			v := rng.UnitSphere()
			nm = &v
		}
		c.Append(p, col, nm)
	}
	return c
}

func TestCloudRoundTripAllFormats(t *testing.T) {
	for _, format := range []Format{ASCII, BinaryLittleEndian, BinaryBigEndian} {
		for _, withColors := range []bool{false, true} {
			for _, withNormals := range []bool{false, true} {
				c := sampleCloud(200, withColors, withNormals)
				var buf bytes.Buffer
				if err := WriteCloud(&buf, c, format, "test roundtrip"); err != nil {
					t.Fatalf("%v colors=%v normals=%v: write: %v", format, withColors, withNormals, err)
				}
				got, err := ReadCloud(&buf)
				if err != nil {
					t.Fatalf("%v: read: %v", format, err)
				}
				if got.Len() != c.Len() {
					t.Fatalf("%v: len %d != %d", format, got.Len(), c.Len())
				}
				for i := range c.Points {
					// Positions pass through float32.
					if c.Points[i].Dist(got.Points[i]) > 1e-6 {
						t.Fatalf("%v point %d: %v != %v", format, i, got.Points[i], c.Points[i])
					}
				}
				if withColors {
					for i := range c.Colors {
						if c.Colors[i] != got.Colors[i] {
							t.Fatalf("%v color %d mismatch", format, i)
						}
					}
				} else if got.HasColors() {
					t.Fatalf("%v: colors appeared from nowhere", format)
				}
				if withNormals {
					for i := range c.Normals {
						if c.Normals[i].Dist(got.Normals[i]) > 1e-6 {
							t.Fatalf("%v normal %d mismatch", format, i)
						}
					}
				}
			}
		}
	}
}

func TestHeaderParse8iStyle(t *testing.T) {
	// Header layout of the actual 8i Voxelized Full Bodies files.
	header := strings.Join([]string{
		"ply",
		"format binary_little_endian 1.0",
		"comment Version 2, Copyright 2017, 8i Labs, Inc.",
		"comment frame_to_world_scale 0.181731",
		"element vertex 3",
		"property float x",
		"property float y",
		"property float z",
		"property uchar red",
		"property uchar green",
		"property uchar blue",
		"end_header",
	}, "\n") + "\n"
	body := make([]byte, 3*(3*4+3))
	f, err := Read(bytes.NewReader(append([]byte(header), body...)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Header.Format != BinaryLittleEndian {
		t.Errorf("format = %v", f.Header.Format)
	}
	if len(f.Header.Comments) != 2 {
		t.Errorf("comments = %v", f.Header.Comments)
	}
	v := f.Header.Element("vertex")
	if v == nil || v.Count != 3 || len(v.Properties) != 6 {
		t.Fatalf("vertex element = %+v", v)
	}
}

func TestListPropertiesRoundTrip(t *testing.T) {
	// A mesh-style file with faces: exercises list encode/decode.
	f := &File{
		Header: Header{
			Format:  ASCII,
			Version: "1.0",
			Elements: []Element{
				{
					Name:  "vertex",
					Count: 3,
					Properties: []Property{
						{Name: "x", Type: Float32},
						{Name: "y", Type: Float32},
						{Name: "z", Type: Float32},
					},
				},
				{
					Name:  "face",
					Count: 1,
					Properties: []Property{
						{Name: "vertex_indices", Type: Int32, IsList: true, CountType: UInt8},
					},
				},
			},
		},
		Scalars: map[string]map[string][]float64{
			"vertex": {"x": {0, 1, 0}, "y": {0, 0, 1}, "z": {0, 0, 0}},
			"face":   {},
		},
		Lists: map[string]map[string][][]float64{
			"face": {"vertex_indices": {{0, 1, 2}}},
		},
	}
	for _, format := range []Format{ASCII, BinaryLittleEndian, BinaryBigEndian} {
		f.Header.Format = format
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		face := got.Lists["face"]["vertex_indices"]
		if len(face) != 1 || len(face[0]) != 3 {
			t.Fatalf("%v: faces = %v", format, face)
		}
		for i, want := range []float64{0, 1, 2} {
			if face[0][i] != want {
				t.Fatalf("%v: face[0][%d] = %v", format, i, face[0][i])
			}
		}
	}
}

func TestScalarTypeWidths(t *testing.T) {
	widths := map[ScalarType]int{
		Int8: 1, UInt8: 1, Int16: 2, UInt16: 2,
		Int32: 4, UInt32: 4, Float32: 4, Float64: 8,
	}
	for typ, want := range widths {
		if typ.Size() != want {
			t.Errorf("%v size = %d, want %d", typ, typ.Size(), want)
		}
	}
	if ScalarType(0).Size() != 0 {
		t.Error("invalid type must have size 0")
	}
}

func TestScalarValueRangesSurviveBinary(t *testing.T) {
	// Extremes of each type must round-trip through binary encodings.
	f := &File{
		Header: Header{
			Format: BinaryBigEndian,
			Elements: []Element{{
				Name:  "v",
				Count: 2,
				Properties: []Property{
					{Name: "a", Type: Int8},
					{Name: "b", Type: UInt16},
					{Name: "c", Type: Int32},
					{Name: "d", Type: Float64},
				},
			}},
		},
		Scalars: map[string]map[string][]float64{
			"v": {
				"a": {-128, 127},
				"b": {0, 65535},
				"c": {-2147483648, 2147483647},
				"d": {math.Pi, -1e300},
			},
		},
		Lists: map[string]map[string][][]float64{},
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range f.Scalars["v"] {
		gotCol := got.Scalars["v"][name]
		for i := range want {
			if gotCol[i] != want[i] {
				t.Errorf("%s[%d] = %v, want %v", name, i, gotCol[i], want[i])
			}
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"no magic", "png\nend_header\n", ErrNotPLY},
		{"bad format", "ply\nformat binary_pdp11 1.0\nend_header\n", ErrBadFormat},
		{"missing format", "ply\nelement vertex 0\nend_header\n", ErrBadHeader},
		{"bad type", "ply\nformat ascii 1.0\nelement vertex 1\nproperty quaternion x\nend_header\n", ErrBadScalarType},
		{"orphan property", "ply\nformat ascii 1.0\nproperty float x\nend_header\n", ErrBadHeader},
		{"bad count", "ply\nformat ascii 1.0\nelement vertex minus\nend_header\n", ErrBadHeader},
		{"unknown keyword", "ply\nformat ascii 1.0\nshenanigans\nend_header\n", ErrBadHeader},
		{"unterminated", "ply\nformat ascii 1.0\n", ErrBadHeader},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestTruncatedBodies(t *testing.T) {
	ascii := "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nend_header\n1.0\n"
	if _, err := Read(strings.NewReader(ascii)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated ascii: %v", err)
	}
	bin := "ply\nformat binary_little_endian 1.0\nelement vertex 2\nproperty float x\nend_header\n\x00\x00\x80"
	if _, err := Read(strings.NewReader(bin)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated binary: %v", err)
	}
}

func TestWriteValidation(t *testing.T) {
	f := &File{
		Header: Header{
			Format: ASCII,
			Elements: []Element{{
				Name:       "vertex",
				Count:      2,
				Properties: []Property{{Name: "x", Type: Float32}},
			}},
		},
		Scalars: map[string]map[string][]float64{"vertex": {}},
		Lists:   map[string]map[string][][]float64{},
	}
	if err := Write(&bytes.Buffer{}, f); !errors.Is(err, ErrMissingColumn) {
		t.Errorf("missing column: %v", err)
	}
	f.Scalars["vertex"]["x"] = []float64{1} // wrong row count
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Error("row count mismatch must error")
	}
}

func TestToCloudRequiresVertex(t *testing.T) {
	f := &File{Header: Header{Format: ASCII}}
	if _, err := ToCloud(f); !errors.Is(err, ErrNoVertexElement) {
		t.Errorf("err = %v", err)
	}
}

func TestASCIIToleratesBlankLinesAndCRLF(t *testing.T) {
	in := "ply\r\nformat ascii 1.0\r\nelement vertex 2\r\nproperty float x\r\nproperty float y\r\nproperty float z\r\nend_header\r\n1 2 3\r\n\r\n4 5 6\r\n"
	c, err := ReadCloud(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Points[1] != geom.V(4, 5, 6) {
		t.Fatalf("cloud = %+v", c.Points)
	}
}
