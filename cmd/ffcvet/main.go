// ffcvet runs the repository's static-analysis suite (internal/lint):
// eight analyzers that enforce the determinism, allocation, safety,
// cancellation, and locking invariants the reproduction depends on.
// The first six are syntactic; ctxflow and lockcheck run on the
// intraprocedural dataflow engine. Each analyzer needs only the
// package it checks. docs/ANALYSIS.md describes each rule.
//
// Two modes share one implementation:
//
//	ffcvet ./...                     # standalone: delegates to go vet -vettool=itself
//	go vet -vettool=$(which ffcvet)  # vettool: speaks the unitchecker protocol
//
// Standalone mode re-executes the go command with itself installed as
// the vet tool, so package loading, export data, and caching are the
// go command's — exactly what a multichecker built on
// golang.org/x/tools would do, without the dependency.
//
// With -json, diagnostics are emitted as JSON lines on stdout
// ({"file","line","col","analyzer","message"}); CI turns them into
// GitHub annotations. The mode travels to the vettool child processes
// via the FFCVET_JSON environment variable, which also suffixes the
// -V=full version string so the go command's action cache never
// replays one mode's output for the other.
//
// Exit status follows the repo convention: 0 clean, 1 diagnostics
// found, 2 usage or internal error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/nettheory/feedbackflow/internal/cli"
	"github.com/nettheory/feedbackflow/internal/lint"
)

// version tags the -V=full handshake output; the go command folds it
// into its action cache key, so bump it when analyzer behavior
// changes in a way the cache must notice.
const version = "v3.0.0"

// jsonEnv propagates -json from the standalone parent to the vettool
// child processes the go command spawns.
const jsonEnv = "FFCVET_JSON"

func main() {
	args := os.Args[1:]
	jsonMode := os.Getenv(jsonEnv) == "1"

	// The go command's vettool handshake: `tool -V=full` must print
	// "<name> version <ver>", and `tool -flags` the JSON description of
	// supported flags (none beyond the protocol's own).
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			v := version
			if jsonMode {
				v += "+json"
			}
			fmt.Printf("%s version %s\n", toolName(), v)
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}

	// Vettool mode: a single *.cfg argument names one package unit.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		cli.Exit(lint.RunUnitChecker(args[0], lint.Analyzers(), os.Stdout, os.Stderr, jsonMode))
	}

	// Standalone mode.
	fs := flag.NewFlagSet("ffcvet", flag.ContinueOnError)
	list := fs.Bool("analyzers", false, "list the analyzers and exit")
	jsonFlag := fs.Bool("json", false, "emit diagnostics as JSON lines on stdout")
	fs.Usage = usage
	if err := fs.Parse(args); err != nil {
		cli.Exit(2)
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(fmt.Errorf("locating own binary: %w", err))
	}
	vet := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	if *jsonFlag {
		runJSON(vet)
		return
	}
	vet.Stdout = os.Stdout
	vet.Stderr = os.Stderr
	if err := vet.Run(); err != nil {
		if _, isExit := err.(*exec.ExitError); isExit {
			cli.Exit(1) // diagnostics were already printed by go vet
		}
		fatal(fmt.Errorf("running go vet: %w", err))
	}
}

// runJSON runs the go vet child in JSON mode and demultiplexes its
// output: the vettool units write JSON diagnostic lines, the go
// command interleaves its own package headers and errors. JSON lines
// go to stdout, everything else to stderr.
func runJSON(vet *exec.Cmd) {
	vet.Env = append(os.Environ(), jsonEnv+"=1")
	var buf bytes.Buffer
	vet.Stdout = &buf
	vet.Stderr = &buf
	err := vet.Run()
	for _, line := range strings.Split(buf.String(), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "{") && json.Valid([]byte(trimmed)):
			fmt.Println(trimmed)
		case trimmed != "":
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err != nil {
		if _, isExit := err.(*exec.ExitError); isExit {
			cli.Exit(1)
		}
		fatal(fmt.Errorf("running go vet: %w", err))
	}
}

// toolName is the executable's base name; the go command checks it
// against the -V=full output.
func toolName() string {
	return strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ffcvet [-json] [packages]

Runs the feedbackflow analyzer suite over the named packages
(default ./...). Also usable as go vet -vettool=$(command -v ffcvet).

Analyzers:
`)
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}

func fatal(err error) { cli.Fatal("ffcvet", err) }
