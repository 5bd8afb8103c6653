package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names each exported declaration that no non-test file
// reaches but that stays, with the reason it stays. A key is the import
// path, the receiver type for a method, and the name, joined by dots.
var unreachedAllowed = map[string]string{
	"repro.OptimizeBatch": "public API: library users outside the repository call it",

	"repro/internal/bench.OrderWOSS": "the zero Ordering: callers select it by leaving the field unset",

	"repro/internal/circuit.Builder.BuildLoose": "test seam: other packages' tests build degenerate graphs with it",
	"repro/internal/circuit.Graph.LevelNodes":   "test seam: other packages' tests walk the level buckets with it",
	"repro/internal/circuit.Graph.Downstream":   "paper check: Section 3's downstream sets, pinned against Figure 1",
	"repro/internal/circuit.Graph.Upstream":     "paper check: Section 3's upstream sets, pinned against Figure 1",

	"repro/internal/core.DualState.MarshalJSON":   "json.Marshaler",
	"repro/internal/core.DualState.UnmarshalJSON": "json.Unmarshaler",

	"repro/internal/coupling.ErrorRatio":        "paper check: Theorem 1's error ratio x̄ᵏ, experiment E4 and ablation A3",
	"repro/internal/coupling.Set.TotalApprox":   "paper check: Theorem 1's order-k total against the exact and linear totals",
	"repro/internal/coupling.Set.NeighborWires": "paper check: the neighbour set N(i) the crosstalk constraint sums over",

	"repro/internal/farm.permanentError.Unwrap": "errors.Unwrap",

	"repro/internal/fault.Plan.Total":          "test seam: the service and farm fault tests read the injection count",
	"repro/internal/fault.connError.Timeout":   "net.Error",
	"repro/internal/fault.connError.Temporary": "net.Error",
	"repro/internal/fault.connError.Unwrap":    "errors.Unwrap",

	"repro/internal/rc.Evaluator.RecomputeSerial": "test seam: the serial reference other packages' oracles compare against",
	"repro/internal/rc.Evaluator.ResetStats":      "test seam: other packages' tests count one phase's evaluator work",
}

// TestEveryExportIsReached keeps the library surface closed. Every
// exported top-level func, method, type, var and const declared in a
// non-test file outside benchmark/ must appear as an identifier in some
// non-test .go file of the repository, other than as the name its own
// declaration introduces. The binaries under cmd/, scripts/ and examples/
// and the benchmark/ module count as callers. An export that only tests
// reach moves into its package's _test.go files or goes; unreachedAllowed
// lists the few that stay, and an entry that is reached, or names nothing,
// fails the test too.
//
// The check matches names, not types, so it cannot see a dead name
// spelled like a live one: any identifier of the same spelling reaches
// it, whatever that identifier refers to. lagrange's Multipliers.Validate
// was such a case, kept "reached" by every other Validate method the
// repository calls.
func TestEveryExportIsReached(t *testing.T) {
	type decl struct{ key, name, file string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		checked := dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/")
		declared := map[*ast.Ident]bool{}
		add := func(id *ast.Ident, recv string) {
			declared[id] = true
			if checked && id.IsExported() {
				decls = append(decls, decl{path.Join("repro", dir) + "." + recv + id.Name, id.Name, file})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if dl.Recv != nil {
					typ := dl.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					recv = typ.(*ast.Ident).Name + "."
				}
				add(dl.Name, recv)
			case *ast.GenDecl:
				for _, s := range dl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "")
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declaredKeys := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declaredKeys[d.key] = true
		_, allowed := unreachedAllowed[d.key]
		switch {
		case used[d.name] && allowed:
			t.Errorf("%s is reached; drop it from unreachedAllowed", d.key)
		case !used[d.name] && !allowed:
			dead = append(dead, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("exported %s is reached only by tests: move it into its package's tests, delete it, or list it in unreachedAllowed with a reason", k)
	}
	for k := range unreachedAllowed {
		if !declaredKeys[k] {
			t.Errorf("unreachedAllowed names %s, which no non-test file declares", k)
		}
	}
}
