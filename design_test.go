package pario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignInventoryCoversTree keeps DESIGN.md §3.1 in step with the
// tree: every directory under internal/ and cmd/ has exactly one row
// with an outcome, and every row names a directory that exists.
func TestDesignInventoryCoversTree(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n### 3.1 ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3.1")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}

	rows := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		dir := strings.Trim(strings.TrimSpace(cells[0]), "`")
		rows[dir]++
		if len(cells) < 2 || strings.TrimSpace(cells[len(cells)-1]) == "" {
			t.Errorf("§3.1 row %s has no outcome", dir)
		}
		if fi, err := os.Stat(filepath.FromSlash(dir)); err != nil || !fi.IsDir() {
			t.Errorf("§3.1 row %s names no directory", dir)
		}
	}

	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := parent + "/" + e.Name()
			if n := rows[dir]; n != 1 {
				t.Errorf("DESIGN.md §3.1 has %d rows for %s, want 1", n, dir)
			}
		}
	}
}
