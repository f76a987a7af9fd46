package pario

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignInventoryCoversTree keeps DESIGN.md §3.1 in step with the
// tree: every directory under internal/ and cmd/ has exactly one row
// with an outcome, every row names a directory that exists, and every
// test, fuzz target or benchmark the section quotes is a func in some
// _test.go file.
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

	quoted := regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)`").FindAllStringSubmatch(section, -1)
	if len(quoted) == 0 {
		t.Fatal("§3.1 quotes no tests")
	}
	defined := testFuncs(t)
	for _, m := range quoted {
		if !defined[m[1]] {
			t.Errorf("§3.1 quotes %s, which no _test.go file defines", m[1])
		}
	}
}

// testFuncs returns the names of the Test, Fuzz and Benchmark funcs
// declared in every _test.go file under the working directory.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
