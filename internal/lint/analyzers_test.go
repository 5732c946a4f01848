package lint_test

import (
	"testing"

	"github.com/nettheory/feedbackflow/internal/lint"
	"github.com/nettheory/feedbackflow/internal/lint/linttest"
)

// Each analyzer gets a firing fixture and a silent one; the silent
// fixtures double as documentation of the sanctioned patterns.

const module = "github.com/nettheory/feedbackflow"

func TestDetRangeFiresInDeterministicPackage(t *testing.T) {
	linttest.Run(t, lint.DetRange, "testdata/detrange/det", module+"/internal/core")
}

func TestDetRangeSilentOutsideDeterministicPackages(t *testing.T) {
	linttest.Run(t, lint.DetRange, "testdata/detrange/nondet", module+"/internal/report")
}

func TestDetSourceFiresInDeterministicPackage(t *testing.T) {
	linttest.Run(t, lint.DetSource, "testdata/detsource/det", module+"/internal/eventsim")
}

func TestDetSourceSilentOutsideDeterministicPackages(t *testing.T) {
	linttest.Run(t, lint.DetSource, "testdata/detsource/nondet", module+"/internal/report")
}

func TestDetSourceCoversFaultInjectors(t *testing.T) {
	linttest.Run(t, lint.DetSource, "testdata/detsource/fault", module+"/internal/fault")
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/hotalloc/hot", module+"/internal/kernel")
}

func TestFiniteJSON(t *testing.T) {
	linttest.Run(t, lint.FiniteJSON, "testdata/finitejson/reports", module+"/internal/reports")
}

// TestFiniteJSONExemptsObs proves the one exempt package: internal/obs
// implements the Float convention and may marshal what it likes.
func TestFiniteJSONExemptsObs(t *testing.T) {
	linttest.Run(t, lint.FiniteJSON, "testdata/finitejson/obs", module+"/internal/obs")
}

func TestCLIExitFiresInCmd(t *testing.T) {
	linttest.Run(t, lint.CLIExit, "testdata/cliexit/cmd", module+"/cmd/badtool")
}

func TestCLIExitSilentOutsideCmd(t *testing.T) {
	linttest.Run(t, lint.CLIExit, "testdata/cliexit/lib", module+"/internal/cli")
}

func TestPoolReturn(t *testing.T) {
	linttest.Run(t, lint.PoolReturn, "testdata/poolreturn/pool", module+"/internal/pool")
}

func TestCtxFlowFires(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "testdata/ctxflow/fire", module+"/internal/serve")
}

func TestCtxFlowSilent(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "testdata/ctxflow/clean", module+"/internal/parallel")
}

// TestCtxFlowSilentOutsideConcurrentPackages proves the gate: the same
// blocking send is legal outside serve/parallel/loadgen.
func TestCtxFlowSilentOutsideConcurrentPackages(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "testdata/ctxflow/ungated", module+"/internal/report")
}

func TestLockCheckFires(t *testing.T) {
	linttest.Run(t, lint.LockCheck, "testdata/lockcheck/fire", module+"/internal/cachebad")
}

func TestLockCheckSilent(t *testing.T) {
	linttest.Run(t, lint.LockCheck, "testdata/lockcheck/clean", module+"/internal/cachegood")
}

// TestSuiteShape pins the suite: eight analyzers, stable names — the CI
// analysis job and docs/ANALYSIS.md reference them by name.
func TestSuiteShape(t *testing.T) {
	want := []string{
		"detrange", "detsource", "hotalloc", "finitejson", "cliexit", "poolreturn",
		"ctxflow", "lockcheck",
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}
