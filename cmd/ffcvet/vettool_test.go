package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nettheory/feedbackflow/internal/lint"
)

// buildTool compiles ffcvet into a temp dir and returns the binary
// path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "ffcvet")
	cmd := exec.Command("go", "build", "-o", tool, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ffcvet: %v\n%s", err, out)
	}
	return tool
}

// writeModule lays out a self-contained module with one lockcheck
// finding: counter.n is written under the mutex in Inc and read bare
// in Get. The package imports sync, so go vet also runs the tool over
// dependency-only units.
func writeModule(t *testing.T) string {
	t.Helper()
	mod := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/fixture\n\ngo 1.22\n",
		"counter/counter.go": `// Package counter reads a mutex-guarded field without the lock.
package counter

import "sync"

// Counter counts under mu.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc adds one under the lock.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Get reads n without the lock.
func (c *Counter) Get() int { return c.n }
`,
	}
	for name, content := range files {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return mod
}

// exitCode unwraps an *exec.ExitError; -1 means the command did not
// run or was killed.
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestVettoolProtocol runs the built binary under the real
// `go vet -vettool` protocol and expects the lockcheck diagnostic,
// attributed to counter.go.
func TestVettoolProtocol(t *testing.T) {
	tool := buildTool(t)
	mod := writeModule(t)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("go vet exited %d; want 1 with the lockcheck diagnostic\n%s", code, out)
	}
	if !bytes.Contains(out, []byte("field n is written under the mutex elsewhere but accessed here without holding it")) {
		t.Fatalf("go vet output missing the lockcheck diagnostic:\n%s", out)
	}
	if !bytes.Contains(out, []byte("counter.go")) {
		t.Errorf("diagnostic not attributed to counter.go:\n%s", out)
	}
}

// TestStandaloneJSONMode runs `ffcvet -json ./...` over the same
// module and checks the machine-readable contract CI consumes: exit 1,
// one well-formed JSON diagnostic per line on stdout, prose elsewhere.
func TestStandaloneJSONMode(t *testing.T) {
	tool := buildTool(t)
	mod := writeModule(t)

	cmd := exec.Command(tool, "-json", "./...")
	cmd.Dir = mod
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := exitCode(err); code != 1 {
		t.Fatalf("ffcvet -json exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	var diags []lint.JSONDiagnostic
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var d lint.JSONDiagnostic
		if uerr := json.Unmarshal([]byte(line), &d); uerr != nil {
			t.Fatalf("stdout line is not a JSON diagnostic: %q: %v", line, uerr)
		}
		diags = append(diags, d)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d JSON diagnostics, want exactly 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lockcheck" {
		t.Errorf("analyzer = %q, want lockcheck", d.Analyzer)
	}
	if !strings.Contains(d.Message, "field n") {
		t.Errorf("message %q does not name the field", d.Message)
	}
	if !strings.HasSuffix(d.File, "counter.go") || d.Line <= 0 || d.Col <= 0 {
		t.Errorf("diagnostic position %s:%d:%d does not point into counter.go", d.File, d.Line, d.Col)
	}
}
