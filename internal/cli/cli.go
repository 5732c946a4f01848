// Package cli holds the small shared plumbing of the four command-line
// binaries (ffc, ffsweep, fftables, qsim): uniform fatal-error
// handling, -metrics-json report writing, and the -debug-addr
// diagnostics server exposing net/http/pprof and expvar.
package cli

import (
	"encoding/json"
	_ "expvar" // registers /debug/vars on the default mux
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"

	"github.com/nettheory/feedbackflow/internal/obs"
)

// exit is swapped out by tests.
var exit = os.Exit

// Fatal prints "tool: err" to stderr and exits with status 2 — the
// one shared error path of every binary, used for bad flags and
// unrecoverable run errors alike so that scripts can rely on a single
// convention: 0 success, 1 reproduction/convergence failure, 2 usage
// or runtime error.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	exit(2)
}

// Fatalf is Fatal with formatting.
func Fatalf(tool, format string, args ...interface{}) {
	Fatal(tool, fmt.Errorf(format, args...))
}

// Exit terminates the process with the given status code. It is the
// sanctioned non-error exit: binaries signal "check failed" (status 1,
// e.g. a non-converging run or a failed reproduction) through here so
// that every exit flows through this package — the cliexit analyzer
// flags direct os.Exit calls in cmd/*.
func Exit(code int) { exit(code) }

// WriteJSON writes v as indented JSON to path, with "-" meaning
// stdout. The file is written atomically enough for reports (create,
// write, close) and always ends in a newline.
func WriteJSON(path string, v interface{}) error {
	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteReport writes a run report to path, with "-" meaning stdout:
// rep.AppendJSON's bytes and a newline, the same bytes ffcd's /run
// serves for the same run (modulo wall_ns).
func WriteReport(path string, rep *obs.RunReport) error {
	b := append(rep.AppendJSON(nil), '\n')
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// StartDebugServer serves the default HTTP mux — which carries
// /debug/pprof (profiling) and /debug/vars (expvar, including
// anything the binary has published) — on addr, in a background
// goroutine. It returns the bound address, useful when addr ends in
// ":0". The listener stays open for the life of the process; callers
// use it for profiling long sweeps, not request serving.
func StartDebugServer(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		// The error is deliberately dropped: the process's real work
		// does not depend on the diagnostics server, and Serve only
		// returns when the listener dies at exit.
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr(), nil
}
