package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeUnitFile writes one file into dir and returns its path.
func writeUnitFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// runUnit marshals cfg, runs the unitchecker on it, and returns the
// exit code with captured output.
func runUnit(t *testing.T, dir string, cfg *vetConfig) (code int, stdout, stderr string) {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := writeUnitFile(t, dir, cfg.ID+".cfg", string(data))
	var out, errBuf bytes.Buffer
	code = RunUnitChecker(cfgPath, Analyzers(), &out, &errBuf, false)
	return code, out.String(), errBuf.String()
}

// TestVetxOnlyUnitParsesNothing checks that a dependency-only unit,
// module or standard library alike, exits 0 without being parsed
// (its GoFiles are deliberately bogus here) and leaves an empty facts
// file, which is what lets the go command cache the result.
func TestVetxOnlyUnitParsesNothing(t *testing.T) {
	for name, cfg := range map[string]*vetConfig{
		"std":    {ID: "fmt", ImportPath: "fmt", Standard: map[string]bool{"fmt": true}},
		"module": {ID: "mod", ImportPath: "example.com/mod"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg.GoFiles = []string{filepath.Join(dir, "does-not-exist.go")}
			cfg.VetxOnly = true
			cfg.VetxOutput = filepath.Join(dir, cfg.ID+".vetx")
			code, stdout, stderr := runUnit(t, dir, cfg)
			if code != 0 {
				t.Fatalf("%s unit: exit %d, stderr %q", cfg.ImportPath, code, stderr)
			}
			if stdout != "" || stderr != "" {
				t.Errorf("%s unit printed stdout %q, stderr %q; want nothing", cfg.ImportPath, stdout, stderr)
			}
			data, err := os.ReadFile(cfg.VetxOutput)
			if err != nil {
				t.Fatalf("%s unit wrote no facts file: %v", cfg.ImportPath, err)
			}
			if len(data) != 0 {
				t.Errorf("%s vetx is %d bytes, want empty", cfg.ImportPath, len(data))
			}
		})
	}
}

// TestImportVetxNotRead checks that a unit ignores its imports' facts
// files: no analyzer reads facts, so an empty, corrupt, foreign or
// missing one is no error, and the unit's own analysis still runs —
// the map range below accumulates floats in a deterministic package,
// so detrange must report it whatever the import's file holds.
func TestImportVetxNotRead(t *testing.T) {
	for name, content := range map[string]string{
		"empty":        "",
		"not-json":     "not json {{",
		"wrong-schema": `{"schema":"someone-elses/v9","packages":{}}`,
		"missing":      "",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			src := writeUnitFile(t, dir, "c.go", `package core

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`)
			depVetx := filepath.Join(dir, "dep.vetx")
			if name != "missing" {
				writeUnitFile(t, dir, "dep.vetx", content)
			}
			code, _, stderr := runUnit(t, dir, &vetConfig{
				ID:          "c",
				ImportPath:  modulePath + "/internal/core",
				GoFiles:     []string{src},
				PackageVetx: map[string]string{"example.com/dep": depVetx},
				VetxOutput:  filepath.Join(dir, "c.vetx"),
			})
			if code != 1 {
				t.Fatalf("unit with a %s import vetx: exit %d, want 1 with the detrange diagnostic (stderr %q)", name, code, stderr)
			}
			if !strings.Contains(stderr, "[detrange]") || !strings.Contains(stderr, "c.go") {
				t.Errorf("stderr %q lacks the detrange diagnostic on c.go", stderr)
			}
			if strings.Contains(stderr, "example.com/dep") {
				t.Errorf("stderr %q mentions the import's facts file", stderr)
			}
		})
	}
}

// TestUnitConfigErrors checks that a config the unit cannot use is a
// protocol failure, exit 2 with the reason on stderr, never a silent
// clean pass.
func TestUnitConfigErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		content string // "" means the config file does not exist
		want    string
	}{
		"missing":        {"", "no such file"},
		"not-json":       {"not json {{", "parsing vet config"},
		"no-import-path": {`{"ID":"x","GoFiles":[]}`, "has no import path"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfgPath := filepath.Join(dir, "x.cfg")
			if tc.content != "" {
				writeUnitFile(t, dir, "x.cfg", tc.content)
			}
			var out, errBuf bytes.Buffer
			code := RunUnitChecker(cfgPath, Analyzers(), &out, &errBuf, false)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, errBuf.String())
			}
			if !strings.Contains(errBuf.String(), tc.want) {
				t.Errorf("stderr %q does not contain %q", errBuf.String(), tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("stdout %q, want nothing", out.String())
			}
		})
	}
}

// TestUnitSourceErrors checks that a unit whose sources do not parse
// or type-check exits 2, unless the config asks the tool to succeed on
// type-check failure, as the go command does for packages whose
// compile already reported the error.
func TestUnitSourceErrors(t *testing.T) {
	for name, src := range map[string]string{
		"parse":     "package p\n\nfunc {\n",
		"typecheck": "package p\n\nvar x int = \"s\"\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			file := writeUnitFile(t, dir, "p.go", src)
			cfg := &vetConfig{ID: "p", ImportPath: "example.com/p", GoFiles: []string{file}}
			if code, _, stderr := runUnit(t, dir, cfg); code != 2 || stderr == "" {
				t.Errorf("exit %d, stderr %q; want 2 with the error", code, stderr)
			}
			cfg.SucceedOnTypecheckFailure = true
			if code, _, stderr := runUnit(t, dir, cfg); code != 0 || stderr != "" {
				t.Errorf("with SucceedOnTypecheckFailure: exit %d, stderr %q; want 0 and nothing", code, stderr)
			}
		})
	}
}
