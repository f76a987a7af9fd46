// Command metriclint enforces the metric naming convention: every
// metric registered on a telemetry.Registry (Counter, Gauge,
// Histogram, their Vec and Func forms) must be named pario_[a-z_]+ —
// one namespace, lowercase, underscores. Dashboards, smoke scripts
// and blastd's alert rules all address metrics by name, so a stray
// camelCase or unprefixed family breaks consumers silently.
//
// It also keeps text exposition at the process boundary: a
// WritePrometheus call outside internal/telemetry is a violation.
// In-process consumers read Registry.Snapshot and HTTP routes mount
// telemetry.MetricsHandler, so nothing renders a registry to text only
// to parse it back.
//
// Usage: go run ./scripts/metriclint <dir>
//
// Scans every non-test .go file under the directory, looking at calls
// whose method name is a registry constructor and whose first
// argument is a string literal. Exits 1 listing violations, 0 clean.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var namePattern = regexp.MustCompile(`^pario_[a-z_]+$`)

// constructors is the set of Registry method names that take a metric
// name as their first argument.
var constructors = map[string]bool{
	"Counter": true, "CounterVec": true, "CounterFunc": true,
	"Gauge": true, "GaugeVec": true, "GaugeFunc": true,
	"Histogram": true, "HistogramVec": true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "vendor" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		inTelemetry := filepath.Base(filepath.Dir(path)) == "telemetry"
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "WritePrometheus" && !inTelemetry {
				violations = append(violations, fmt.Sprintf(
					"%s: WritePrometheus outside internal/telemetry (read Registry.Snapshot, or serve telemetry.MetricsHandler)",
					fset.Position(sel.Sel.Pos())))
			}
			if !constructors[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !namePattern.MatchString(name) {
				violations = append(violations, fmt.Sprintf(
					"%s: metric %q does not match pario_[a-z_]+",
					fset.Position(lit.Pos()), name))
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "metriclint: "+v)
		}
		os.Exit(1)
	}
}
