// Package linttest is the fixture harness for the internal/lint
// analyzers — a stdlib-only analogue of
// golang.org/x/tools/go/analysis/analysistest. A fixture is a
// directory of Go files checked as one package under a caller-chosen
// import path (several analyzers key off the path), with expectations
// written as trailing comments:
//
//	sum += v // want "floating-point accumulation"
//
// Each `// want "re" ...` comment lists regular expressions; every
// diagnostic on that line must match one, and every expectation must
// be matched by a diagnostic. Lines without a want comment must stay
// silent.
//
// Fixture type information comes from real export data: the harness
// shells out to `go list -export -deps` for the fixture's imports
// (cached per import set), then type-checks with the same gc importer
// the vettool protocol uses — so fixtures exercise exactly the code
// path ffcvet runs under go vet.
package linttest

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/nettheory/feedbackflow/internal/lint"
)

// Run checks one fixture directory with one analyzer under the given
// package import path, failing t with a precise per-line account of
// unexpected and missing diagnostics.
func Run(t *testing.T, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}

	pkg, info := typecheck(t, fset, files, pkgPath)
	diags, err := lint.CheckPackage(fset, files, pkg, info, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	checkExpectations(t, fset, files, diags)
}

// typecheck builds types for the fixture against real export data.
func typecheck(t *testing.T, fset *token.FileSet, files []*ast.File, pkgPath string) (*types.Package, *types.Info) {
	t.Helper()
	exports, err := listPackages(fixtureImports(files))
	if err != nil {
		t.Fatalf("export data: %v", err)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		export := exports[path]
		if export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(export)
	})
	conf := types.Config{Importer: imp}
	info := lint.NewTypesInfo()
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	return pkg, info
}

var (
	exportMu    sync.Mutex
	exportCache = map[string]map[string]string{}
)

// fixtureImports collects the direct imports of the fixture files.
func fixtureImports(files []*ast.File) map[string]bool {
	imports := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != "" && path != "unsafe" {
				imports[path] = true
			}
		}
	}
	return imports
}

// listPackages returns import path → export-data file for the
// transitive closure of the given imports, via `go list -export
// -deps`. Results are cached per sorted import set for the life of the
// test binary.
func listPackages(imports map[string]bool) (map[string]string, error) {
	paths := make([]string, 0, len(imports))
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	key := strings.Join(paths, ",")

	exportMu.Lock()
	defer exportMu.Unlock()
	if m, ok := exportCache[key]; ok {
		return m, nil
	}
	m := map[string]string{}
	if len(paths) > 0 {
		args := append([]string{"list", "-export", "-json=ImportPath,Export", "-deps"}, paths...)
		out, err := exec.Command("go", args...).Output()
		if err != nil {
			msg := ""
			if ee, ok := err.(*exec.ExitError); ok {
				msg = string(ee.Stderr)
			}
			return nil, fmt.Errorf("go list -export: %v\n%s", err, msg)
		}
		dec := json.NewDecoder(strings.NewReader(string(out)))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			m[p.ImportPath] = p.Export
		}
	}
	exportCache[key] = m
	return m, nil
}

// wantRe extracts the quoted regexps of a want comment; both "..."
// and `...` forms are accepted.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// expectation is one unmatched want regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

// checkExpectations reconciles diagnostics with // want comments.
func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, m := range ms {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}

	matched := map[*expectation]bool{}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		ok := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				matched[w] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s [%s]", pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
