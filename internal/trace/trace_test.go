package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("time", 5)
	if err := tab.Add(Series{Name: "a", Values: []float64{1, 2, 3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(FromInts("b", []int{10, 8, 6, 4, 2})); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableAddValidatesLength(t *testing.T) {
	tab := NewTable("t", 3)
	err := tab.Add(Series{Name: "bad", Values: []float64{1}})
	if !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v", err)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable(t).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "time,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,10" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[5] != "4,5,2" {
		t.Errorf("row 5 = %q", lines[5])
	}
}

func TestWriteCSVEscaping(t *testing.T) {
	tab := NewTable("t", 1)
	if err := tab.Add(Series{Name: `weird,"name"`, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"weird,""name"""`) {
		t.Errorf("escaping wrong: %q", buf.String())
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	tab := NewTable("t", 0)
	if err := tab.WriteCSV(&bytes.Buffer{}); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("err = %v", err)
	}
}

func TestRenderASCIIBasics(t *testing.T) {
	var buf bytes.Buffer
	err := sampleTable(t).RenderASCII(&buf, ChartOptions{Width: 40, Height: 10, Title: "Fig test"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Fig test\n") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "[*] a") || !strings.Contains(out, "[o] b") {
		t.Errorf("missing legend: %s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("missing plotted glyphs")
	}
	// y labels include max (10) and min (1).
	if !strings.Contains(out, "10") || !strings.Contains(out, "1") {
		t.Errorf("missing y ticks: %s", out)
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	tab := NewTable("t", 4)
	if err := tab.Add(Series{Name: "flat", Values: []float64{5, 5, 5, 5}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.RenderASCII(&buf, ChartOptions{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output for constant series")
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		4e5:     "400.0k",
		1.2e6:   "1.20M",
		4500:    "4.5k",
		7:       "7",
		0.00321: "0.00321",
	}
	for in, want := range cases {
		if got := formatTick(in); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderTextTable(t *testing.T) {
	var buf bytes.Buffer
	err := RenderTextTable(&buf,
		[]string{"depth", "points"},
		[][]string{{"5", "9000"}, {"10", "200000"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "depth") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Errorf("separator = %q", lines[1])
	}
	// Mismatched row must error.
	if err := RenderTextTable(&buf, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("ragged row must error")
	}
	if err := RenderTextTable(&buf, nil, nil); err == nil {
		t.Error("empty headers must error")
	}
}

func TestNewTableWithX(t *testing.T) {
	tab := NewTableWithX("depth", []float64{5, 7, 10})
	if err := tab.Add(Series{Name: "points", Values: []float64{10, 100, 1000}}); err != nil {
		t.Fatal(err)
	}
	// The explicit axis governs length validation.
	if err := tab.Add(Series{Name: "short", Values: []float64{1}}); err == nil {
		t.Error("mismatched series must error")
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || lines[1] != "5,10" || lines[3] != "10,1000" {
		t.Errorf("csv = %q", buf.String())
	}
}
