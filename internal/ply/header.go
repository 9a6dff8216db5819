// Package ply implements the Polygon File Format (PLY) used by the 8i
// Voxelized Full Bodies dataset: header parsing, and reading/writing of
// ascii, binary_little_endian, and binary_big_endian bodies with arbitrary
// elements, scalar properties, and list properties. It replaces the
// point-cloud IO role Open3D plays in the paper.
package ply

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Format identifies the encoding of a PLY body.
type Format int

// Supported body encodings.
const (
	ASCII Format = iota + 1
	BinaryLittleEndian
	BinaryBigEndian
)

// String implements fmt.Stringer using the on-disk keyword.
func (f Format) String() string {
	switch f {
	case ASCII:
		return "ascii"
	case BinaryLittleEndian:
		return "binary_little_endian"
	case BinaryBigEndian:
		return "binary_big_endian"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ScalarType is one of PLY's scalar property types.
type ScalarType int

// PLY scalar types. Both classic names (char/uchar/...) and sized names
// (int8/uint8/...) parse to the same values.
const (
	Int8 ScalarType = iota + 1
	UInt8
	Int16
	UInt16
	Int32
	UInt32
	Float32
	Float64
)

// Size returns the encoded byte width of the scalar type.
func (t ScalarType) Size() int {
	switch t {
	case Int8, UInt8:
		return 1
	case Int16, UInt16:
		return 2
	case Int32, UInt32, Float32:
		return 4
	case Float64:
		return 8
	default:
		return 0
	}
}

// String implements fmt.Stringer using the classic PLY names the 8i files use.
func (t ScalarType) String() string {
	switch t {
	case Int8:
		return "char"
	case UInt8:
		return "uchar"
	case Int16:
		return "short"
	case UInt16:
		return "ushort"
	case Int32:
		return "int"
	case UInt32:
		return "uint"
	case Float32:
		return "float"
	case Float64:
		return "double"
	default:
		return fmt.Sprintf("ScalarType(%d)", int(t))
	}
}

var scalarTypeNames = map[string]ScalarType{
	"char": Int8, "int8": Int8,
	"uchar": UInt8, "uint8": UInt8,
	"short": Int16, "int16": Int16,
	"ushort": UInt16, "uint16": UInt16,
	"int": Int32, "int32": Int32,
	"uint": UInt32, "uint32": UInt32,
	"float": Float32, "float32": Float32,
	"double": Float64, "float64": Float64,
}

// Property describes one property of an element. List properties (e.g.
// vertex_indices of faces) have IsList set with CountType for the length
// prefix and Type for the list payload.
type Property struct {
	Name      string
	Type      ScalarType
	IsList    bool
	CountType ScalarType
}

// Element describes one element group (e.g. "vertex", "face").
type Element struct {
	Name       string
	Count      int
	Properties []Property
}

// Header is a parsed PLY header.
type Header struct {
	Format   Format
	Version  string
	Comments []string
	Elements []Element
}

// Element returns the named element, or nil.
func (h *Header) Element(name string) *Element {
	for i := range h.Elements {
		if h.Elements[i].Name == name {
			return &h.Elements[i]
		}
	}
	return nil
}

// Errors the parser can return; matchable with errors.Is.
var (
	ErrNotPLY        = errors.New("ply: missing magic 'ply' line")
	ErrBadHeader     = errors.New("ply: malformed header")
	ErrBadFormat     = errors.New("ply: unsupported format line")
	ErrBadScalarType = errors.New("ply: unknown scalar type")
	ErrTruncated     = errors.New("ply: truncated body")
)

// parseHeader consumes header lines from r up to and including end_header.
func parseHeader(r *bufio.Reader) (*Header, error) {
	magic, err := readHeaderLine(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotPLY, err)
	}
	if magic != "ply" {
		return nil, ErrNotPLY
	}
	h := &Header{}
	var current *Element
	for {
		line, err := readHeaderLine(r)
		if err != nil {
			return nil, fmt.Errorf("%w: unterminated header: %v", ErrBadHeader, err)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "format":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: %q", ErrBadFormat, line)
			}
			switch fields[1] {
			case "ascii":
				h.Format = ASCII
			case "binary_little_endian":
				h.Format = BinaryLittleEndian
			case "binary_big_endian":
				h.Format = BinaryBigEndian
			default:
				return nil, fmt.Errorf("%w: %q", ErrBadFormat, fields[1])
			}
			h.Version = fields[2]
		case "comment", "obj_info":
			h.Comments = append(h.Comments, strings.TrimSpace(strings.TrimPrefix(line, fields[0])))
		case "element":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: element line %q", ErrBadHeader, line)
			}
			count, err := strconv.Atoi(fields[2])
			if err != nil || count < 0 {
				return nil, fmt.Errorf("%w: element count %q", ErrBadHeader, fields[2])
			}
			// Columns are keyed by element name, so a duplicate would
			// silently alias the first element's data.
			for _, e := range h.Elements {
				if e.Name == fields[1] {
					return nil, fmt.Errorf("%w: duplicate element %q", ErrBadHeader, fields[1])
				}
			}
			h.Elements = append(h.Elements, Element{Name: fields[1], Count: count})
			current = &h.Elements[len(h.Elements)-1]
		case "property":
			if current == nil {
				return nil, fmt.Errorf("%w: property before element", ErrBadHeader)
			}
			prop, err := parseProperty(fields)
			if err != nil {
				return nil, err
			}
			// Same aliasing hazard as elements: columns are keyed by
			// property name within the element.
			for _, p := range current.Properties {
				if p.Name == prop.Name {
					return nil, fmt.Errorf("%w: duplicate property %q in element %q", ErrBadHeader, prop.Name, current.Name)
				}
			}
			current.Properties = append(current.Properties, prop)
		case "end_header":
			if h.Format == 0 {
				return nil, fmt.Errorf("%w: missing format line", ErrBadHeader)
			}
			return h, nil
		default:
			return nil, fmt.Errorf("%w: unknown keyword %q", ErrBadHeader, fields[0])
		}
	}
}

func parseProperty(fields []string) (Property, error) {
	if len(fields) >= 2 && fields[1] == "list" {
		if len(fields) != 5 {
			return Property{}, fmt.Errorf("%w: list property %v", ErrBadHeader, fields)
		}
		ct, ok := scalarTypeNames[fields[2]]
		if !ok {
			return Property{}, fmt.Errorf("%w: %q", ErrBadScalarType, fields[2])
		}
		vt, ok := scalarTypeNames[fields[3]]
		if !ok {
			return Property{}, fmt.Errorf("%w: %q", ErrBadScalarType, fields[3])
		}
		return Property{Name: fields[4], Type: vt, IsList: true, CountType: ct}, nil
	}
	if len(fields) != 3 {
		return Property{}, fmt.Errorf("%w: property %v", ErrBadHeader, fields)
	}
	t, ok := scalarTypeNames[fields[1]]
	if !ok {
		return Property{}, fmt.Errorf("%w: %q", ErrBadScalarType, fields[1])
	}
	return Property{Name: fields[2], Type: t}, nil
}

// readHeaderLine reads one \n-terminated line, tolerating \r\n.
func readHeaderLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}
