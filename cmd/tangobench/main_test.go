package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tango/internal/experiments"
)

func TestSanitize(t *testing.T) {
	if got := sanitize("f3c_same priority (OVS)"); strings.ContainsAny(got, " ()") {
		t.Fatalf("sanitize left specials: %q", got)
	}
}

func TestCatalogIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range catalog(experiments.Options{}, "") {
		if seen[e.id] {
			t.Fatalf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	for _, id := range []string{"table1", "f2", "f3c", "f10", "f12", "qos", "reported"} {
		if !seen[id] {
			t.Fatalf("missing experiment id %q", id)
		}
	}
}

func TestWriteDat(t *testing.T) {
	dir := t.TempDir()
	fig := &experiments.Figure{
		Title:  "t",
		Series: []experiments.Series{{Name: "s one", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	if err := writeDat(dir, "exp", fig); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "exp_s_one.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1 3\n2 4\n") {
		t.Fatalf("dat content: %q", data)
	}
	tab := &experiments.Table{Title: "tt", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	if err := writeDat(dir, "tab", tab); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tab.txt")); err != nil {
		t.Fatal(err)
	}
}

// unwritablePath returns a path whose parent is a regular file, which no
// process — including root — can create children under.
func unwritablePath(t *testing.T) string {
	t.Helper()
	blocker := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(blocker, "sub")
}

func TestCheckWritableDirRejectsBadPath(t *testing.T) {
	if err := checkWritableDir(unwritablePath(t)); err == nil {
		t.Fatal("checkWritableDir accepted a path under a regular file")
	}
}

func TestCheckWritableDirAcceptsNewDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "nested")
	if err := checkWritableDir(dir); err != nil {
		t.Fatal(err)
	}
	// The probe temp file must not linger.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("probe left %d entries behind", len(ents))
	}
}

func TestCheckWritableFileRejectsBadPath(t *testing.T) {
	if err := checkWritableFile(filepath.Join(unwritablePath(t), "m.json")); err == nil {
		t.Fatal("checkWritableFile accepted a path under a regular file")
	}
}

func TestCheckWritableFileKeepsExistingContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte("existing"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkWritableFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "existing" {
		t.Fatalf("probe truncated the file: %q", data)
	}
}
