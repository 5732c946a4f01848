package lint

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
	"strings"
)

// This file implements the `go vet -vettool` protocol — the same
// contract golang.org/x/tools/go/analysis/unitchecker fulfills — using
// only the standard library. The go command invokes the tool once per
// package with a JSON config file naming the package's sources and the
// export-data files of its dependencies; the tool type-checks from
// those, runs its analyzers, prints diagnostics, and exits 1 when it
// found any. Import resolution goes through go/importer's gc importer
// with a lookup function over the config's PackageFile map, exactly as
// unitchecker does.
//
// The protocol also carries analysis facts between packages: each unit
// may write a facts (vetx) file, and the go command hands every unit
// the files of its direct imports. No analyzer here exports facts, so
// the imports' files are never read, and a dependency-only unit
// (VetxOnly) completes without parsing anything. Every unit still
// writes an empty VetxOutput: the go command caches a VetxOnly result
// only when that file exists, and without it would re-run the tool for
// every dependency of every vetted package on each go vet.

// vetConfig mirrors the JSON config the go command writes for vet
// tools (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// JSONDiagnostic is the machine-readable diagnostic form emitted by
// ffcvet -json, one JSON object per line on stdout. CI turns these
// into GitHub annotations.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// RunUnitChecker executes the vettool protocol for one package config
// and returns the process exit code: 0 clean, 1 diagnostics reported,
// 2 protocol or type-check failure. Diagnostics go to stderr as
// file:line:col: message, or to stdout as JSON lines when jsonMode is
// set; errors always go to stderr.
func RunUnitChecker(cfgFile string, analyzers []*Analyzer, stdout, stderr io.Writer, jsonMode bool) int {
	cfg, err := readVetConfig(cfgFile)
	if err != nil {
		fmt.Fprintf(stderr, "ffcvet: %v\n", err)
		return 2
	}

	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "ffcvet: writing %s: %v\n", cfg.VetxOutput, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files, err := parseUnit(fset, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "ffcvet: %v\n", err)
		return 2
	}

	pkg, info, err := typecheckUnit(fset, cfg, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "ffcvet: typecheck %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	diags, err := CheckPackage(fset, files, pkg, info, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "ffcvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if jsonMode {
			line, _ := json.Marshal(JSONDiagnostic{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			fmt.Fprintf(stdout, "%s\n", line)
		} else {
			fmt.Fprintf(stderr, "%s: %s [%s]\n", pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// readVetConfig loads and sanity-checks a vet config file.
func readVetConfig(path string) (*vetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := &vetConfig{}
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %v", path, err)
	}
	if cfg.ImportPath == "" {
		return nil, fmt.Errorf("vet config %s has no import path", path)
	}
	return cfg, nil
}

// parseUnit parses the unit's Go sources with comments (several
// analyzers read directives).
func parseUnit(fset *token.FileSet, cfg *vetConfig) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typecheckUnit type-checks one vet unit against the export data of
// its dependencies.
func typecheckUnit(fset *token.FileSet, cfg *vetConfig, files []*ast.File) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	gcImporter := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := mappedImporter{imp: gcImporter, importMap: cfg.ImportMap}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect via returned error
	}
	if v := cfg.GoVersion; v != "" && !strings.Contains(v, "-") {
		conf.GoVersion = v
	}
	info := NewTypesInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// mappedImporter applies the config's vendor/import map before the gc
// importer's export-data lookup.
type mappedImporter struct {
	imp       types.Importer
	importMap map[string]string
}

func (m mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return m.imp.Import(path)
}
