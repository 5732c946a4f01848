package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/nettheory/feedbackflow/internal/fault"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// goldenReports pins the SHA-256 of the rendered run report (wall_ns
// zeroed) for every checked-in scenario under all four design corners
// on the discrete backend, and for one count=N population per corner
// on the fluid backend. The digests were recorded before the queueing
// and signal kernels were unified with the fluid backend's weighted
// kernels; a match proves a kernel refactor changed no report byte.
// The fluid rows were re-recorded when the adaptive integrator moved
// from RK4 step doubling to Dormand–Prince 5(4): the steady rates moved
// by under 2e-9·(1 + max rate), inside the solve's tolerance.
var goldenReports = map[string]string{
	"discrete/heterogeneous-starvation.json/fifo/aggregate":       "d8da0a0cf6c7da1a6084f5e263f6d7abe7fbd0a163aee1fc90fd0d7177efdac9",
	"discrete/heterogeneous-starvation.json/fifo/individual":      "90f89bdfc720c79382976d2bed66f1f163a74e703f2e714fee0223395590f35c",
	"discrete/heterogeneous-starvation.json/fairshare/aggregate":  "531c33dd22615b989b55eba87e1df2a030cb7b1c454a3d3390253c179744bd9c",
	"discrete/heterogeneous-starvation.json/fairshare/individual": "fc5a5c2aa78f73a6ebe52b4e7be048bbb49098f5411fe2104f57b6db78518041",
	// In two-bottleneck the A-only and A–B connections always share
	// A's signal, which dominates B's individual measure for the A–B
	// connection, so aggregate and individual feedback coincide.
	"discrete/two-bottleneck.json/fifo/aggregate":       "f730f6fbf264ab4f52ee93509cd6dd876e1ed153610edde302157ffe7d31065b",
	"discrete/two-bottleneck.json/fifo/individual":      "f730f6fbf264ab4f52ee93509cd6dd876e1ed153610edde302157ffe7d31065b",
	"discrete/two-bottleneck.json/fairshare/aggregate":  "322e7db6680ac3913125329227e76c54a44a21ef9d70a3385509f7cecd5a77fe",
	"discrete/two-bottleneck.json/fairshare/individual": "322e7db6680ac3913125329227e76c54a44a21ef9d70a3385509f7cecd5a77fe",
	"fluid/population/fifo/aggregate":                   "d031e81a866c6775d9bd57b36a43ec9313dc3e1d9a198d3d216123b729147ff4",
	"fluid/population/fifo/individual":                  "809884658abb4a1021e8276f1b825d4a338fb5555ea0f4c154fc7810745cdd43",
	"fluid/population/fairshare/aggregate":              "d95497cd7c72bf8641b3f029d2c752985e4be814bb57d69a318740646d5a624a",
	"fluid/population/fairshare/individual":             "5c625fc92af582de2c83975bd033649413b8c698829fb90a7655ff252ce463bd",
	// A faulted run is hooked, so it iterates every connection even
	// where a plain run solves each count=N class once.
	"fault/population-discrete": "c559f97d1b79a737be25d8af326dfecdb4f2a37428a478ac475df081f456f894",
}

// goldenFluidDoc is the population scenario of the fluid rows: two
// classes of a few hundred thousand members sharing gateway A, with
// the Theorem 4 gain scaling η ~ 1/N.
func goldenFluidDoc(discipline, feedback string) string {
	return fmt.Sprintf(`{
		"name": "golden-fluid",
		"discipline": %q,
		"feedback": %q,
		"gateways": [
			{"name": "A", "mu": 1.0, "latency": 0.1},
			{"name": "B", "mu": 2.0, "latency": 0.1}
		],
		"connections": [
			{"path": ["A", "B"], "count": 300000, "law": {"kind": "additive", "eta": 1e-7, "bss": 0.3}},
			{"path": ["A"], "count": 100000, "law": {"kind": "additive", "eta": 1e-7, "bss": 0.4}}
		]
	}`, discipline, feedback)
}

// goldenRender solves sp on the given backend, under the fault spec
// faultSpec when it is not empty, and renders its report exactly as
// the /run handler does, with wall_ns zeroed.
func goldenRender(t *testing.T, sp *scenario.Spec, backend, faultSpec string) []byte {
	t.Helper()
	var rep *obs.RunReport
	if faultSpec != "" {
		cfg, err := fault.Parse(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		sys, r0, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := fault.RunPerturbed(sys, r0, cfg, sp.RunOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = sys.Report(res.Perturbed, sp.Name); err != nil {
			t.Fatal(err)
		}
		res.Attach(rep)
	} else if backend == BackendFluid {
		sys, r0, err := fluid.FromSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(r0, sp.RunOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = sys.Report(res, sp.Name); err != nil {
			t.Fatal(err)
		}
	} else {
		sys, r0, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(r0, sp.RunOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = sys.Report(res, sp.Name); err != nil {
			t.Fatal(err)
		}
	}
	rep.WallNS = 0
	return renderReport(rep)
}

// TestReportGolden compares every corner's report digest against the
// recorded value. The digests are pinned on linux/amd64 only: on
// other targets the Go compiler may fuse a multiply and an add into
// one FMA instruction, which rounds once instead of twice and so
// changes float bits without any change to the source.
func TestReportGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("report digests are pinned on linux/amd64; %s/%s may fuse multiply-adds", runtime.GOOS, runtime.GOARCH)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios found (%v)", err)
	}
	type row struct {
		name, backend, fault string
		load                 func() (*scenario.Spec, error)
	}
	var rows []row
	for _, disc := range []string{"fifo", "fairshare"} {
		for _, feed := range []string{"aggregate", "individual"} {
			corner := disc + "/" + feed
			for _, path := range paths {
				rows = append(rows, row{
					name:    "discrete/" + filepath.Base(path) + "/" + corner,
					backend: BackendDiscrete,
					load: func() (*scenario.Spec, error) {
						f, err := os.Open(path)
						if err != nil {
							return nil, err
						}
						defer f.Close()
						sp, err := scenario.Load(f)
						if err != nil {
							return nil, err
						}
						sp.Discipline, sp.Feedback = disc, feed
						return sp, nil
					},
				})
			}
			rows = append(rows, row{
				name:    "fluid/population/" + corner,
				backend: BackendFluid,
				load: func() (*scenario.Spec, error) {
					return scenario.Load(strings.NewReader(goldenFluidDoc(disc, feed)))
				},
			})
		}
	}
	rows = append(rows, row{
		name:    "fault/population-discrete",
		backend: BackendDiscrete,
		fault:   scenariotest.PopulationFault,
		load: func() (*scenario.Spec, error) {
			return scenario.Load(bytes.NewReader(scenariotest.PopulationDoc))
		},
	})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			sp, err := r.load()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(goldenRender(t, sp, r.backend, r.fault))
			got := hex.EncodeToString(sum[:])
			want, ok := goldenReports[r.name]
			if !ok {
				t.Errorf("no recorded digest; got %q", got)
				return
			}
			if got != want {
				t.Errorf("report digest %s, recorded %s", got, want)
			}
		})
	}
	if len(rows) != len(goldenReports) {
		t.Errorf("%d golden rows, %d recorded digests", len(rows), len(goldenReports))
	}
}
