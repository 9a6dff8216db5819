package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig1WritesCSVAndTable(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "1", "-samples", "30000", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "depth,points,psnr_dB") {
		t.Errorf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	if !strings.Contains(out.String(), "octree depth") {
		t.Error("missing text table on stdout")
	}
}

func TestRunFig2WritesBothCSVs(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "2a", "-samples", "30000", "-slots", "400",
		"-knee", "150", "-out", dir, "-quiet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2a.csv", "fig2b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		head := strings.SplitN(string(data), "\n", 2)[0]
		if !strings.Contains(head, "Proposed") || !strings.Contains(head, "only max-Depth") {
			t.Errorf("%s header = %q", name, head)
		}
		if rows := strings.Count(string(data), "\n"); rows != 401 {
			t.Errorf("%s rows = %d, want 401 (header + 400 slots)", name, rows)
		}
	}
	// Quiet mode suppresses the chart.
	if strings.Contains(out.String(), "Fig. 2(a)") {
		t.Error("quiet mode printed the chart")
	}
}

func TestRunChartsOnStdout(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "2b", "-samples", "30000", "-slots", "400",
		"-knee", "150", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Control action updates") {
		t.Error("missing 2b chart title")
	}
	if !strings.Contains(out.String(), "[*] Proposed") {
		t.Error("missing legend")
	}
}

func TestRunOffloadFigure(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "offload", "-samples", "30000", "-slots", "400",
		"-knee", "150", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "offload.csv")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "EXT-OFFLOAD") ||
		!strings.Contains(out.String(), "uplink bandwidth") {
		t.Error("offload summary missing")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	out := filepath.Join(t.TempDir(), "figs")
	if err := run(context.Background(), []string{"-fig", "7", "-out", out}, &bytes.Buffer{}); err == nil {
		t.Error("unknown figure must error")
	}
	// Flags are validated before anything touches the file system.
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("rejected run left the output directory behind: stat err = %v", err)
	}
}

// TestRunAblationsGolden pins the ablation report byte for byte. The
// golden file was generated on linux/amd64 with the flags below;
// regenerate it only for an intended change to the ablations.
func TestRunAblationsGolden(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "ablations", "-samples", "30000", "-slots", "400",
		"-knee", "150", "-quiet", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "ablations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ablations.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ablations.txt differs from testdata/ablations.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Quiet mode keeps the tables off stdout.
	if strings.Contains(out.String(), "ABL-V") {
		t.Error("quiet mode printed the tables")
	}
}

// TestRunFig2Golden pins both Fig. 2 CSVs byte for byte. The goldens
// were generated on linux/amd64 with the flags below; regenerate them
// only for an intended change to the figure.
func TestRunFig2Golden(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{"-fig", "2a", "-samples", "30000", "-slots", "240",
		"-knee", "80", "-quiet", "-out", dir}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2a", "fig2b"} {
		got, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.csv differs from testdata/%s.golden", name, name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-nonsense"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag must error")
	}
}

func TestRunGridFigure(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "grid", "-samples", "30000", "-slots", "120",
		"-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "grid.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// 3 V factors × 3 network shapes = 9 cells plus the header.
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 10 {
		t.Fatalf("grid.csv lines = %d", len(lines))
	}
	if !strings.Contains(out.String(), "GRID — V × network volatility") {
		t.Errorf("missing grid table on stdout: %q", out.String())
	}
}
