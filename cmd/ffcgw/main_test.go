package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/nettheory/feedbackflow/internal/cluster"
	"github.com/nettheory/feedbackflow/internal/loadgen"
	"github.com/nettheory/feedbackflow/internal/runcache"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// TestMain lets the test binary play every role in the cluster: with
// FFCGW_SMOKE_ROLE=gateway it runs the real ffcgw main() (flag wiring,
// banner, signal handling and all); with FFCGW_SMOKE_ROLE=replica it
// runs the ffcd serving stack on an ephemeral port. Replicas are
// therefore real, separately-killable OS processes — which is the
// point: the chaos test SIGKILLs one mid-load.
func TestMain(m *testing.M) {
	switch os.Getenv("FFCGW_SMOKE_ROLE") {
	case "gateway":
		main()
		os.Exit(0)
	case "replica":
		replicaMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// replicaMain is an ffcd in miniature: the same internal/serve stack
// cmd/ffcd wires, minus flag parsing, announcing its bound address on
// stdout like the daemon does. FFCGW_REPLICA_CACHE_ENTRIES shrinks the
// result cache so the cluster bench can show aggregate cache capacity
// scaling with replica count.
func replicaMain() {
	cacheEntries := 1024
	if s := os.Getenv("FFCGW_REPLICA_CACHE_ENTRIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "replica: bad FFCGW_REPLICA_CACHE_ENTRIES %q\n", s)
			os.Exit(1)
		}
		cacheEntries = n
	}
	s := serve.New(serve.Config{
		Workers:      2,
		Queue:        64,
		CacheEntries: cacheEntries,
		CacheBytes:   32 << 20,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := s.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second, func(a net.Addr) {
		fmt.Printf("replica: serving on http://%s\n", a)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "replica:", err)
		os.Exit(1)
	}
}

// spawn starts this test binary in the given role and scrapes the
// announced base URL from its stdout.
func spawn(t *testing.T, role string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "FFCGW_SMOKE_ROLE="+role)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "http://"); i >= 0 {
			base = strings.Fields(sc.Text()[i:])[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("%s never announced its address: %v", role, sc.Err())
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	go io.Copy(io.Discard, stdout)
	return cmd, base
}

// wallNSRe matches the report's measured solve time — the one field
// that legitimately differs when a dead replica's shard is re-solved
// cold on its failover target. Everything else must be byte-identical.
var wallNSRe = regexp.MustCompile(`"wall_ns":\s*\d+`)

func stripWallNS(body []byte) []byte {
	return wallNSRe.ReplaceAll(body, []byte(`"wall_ns": 0`))
}

func postDoc(base string, doc []byte) (*http.Response, []byte, error) {
	resp, err := http.Post(base+"/run", "application/json", bytes.NewReader(doc))
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

// gatewayMetrics scrapes the gateway's own instruments, the
// feedbackflow.gateway section of /metrics.
func gatewayMetrics(t *testing.T, base string) map[string]interface{} {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	return payload["feedbackflow.gateway"]
}

func gatewayCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	v, _ := gatewayMetrics(t, base)[name].(float64)
	return v
}

// checkedScrape reads one gateway metric and checks that the same
// scrape's gateway.healthy_replicas equals the sum of the replicas'
// gateway.replica.<i>.healthy gauges. All of them are read from the
// ejection state when scraped, microseconds apart, so they can only
// disagree on a scrape that straddles an ejection itself.
func checkedScrape(t *testing.T, base string, replicas int, name string) float64 {
	t.Helper()
	m := gatewayMetrics(t, base)
	sum := 0.0
	for i := 0; i < replicas; i++ {
		h, ok := m["gateway.replica."+strconv.Itoa(i)+".healthy"].(float64)
		if !ok {
			t.Fatalf("scrape has no gateway.replica.%d.healthy gauge", i)
		}
		sum += h
	}
	if got, ok := m["gateway.healthy_replicas"].(float64); !ok || got != sum {
		t.Fatalf("gateway.healthy_replicas = %v, per-replica healthy gauges sum to %v", m["gateway.healthy_replicas"], sum)
	}
	v, _ := m[name].(float64)
	return v
}

// TestGatewaySmoke boots two real replicas and the gateway, verifies
// sharded routing with cache hits on repeat, and a clean SIGTERM drain.
func TestGatewaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	_, rep0 := spawn(t, "replica")
	_, rep1 := spawn(t, "replica")
	gw, base := spawn(t, "gateway",
		"-addr", "127.0.0.1:0",
		"-replicas", rep0+","+rep1,
		"-probe-interval", "50ms",
		"-drain", "10s",
	)

	docs := loadgen.Corpus(8)
	first := make(map[int][]byte)
	for i, doc := range docs {
		resp, body, err := postDoc(base, doc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-FFCD-Cache") != "miss" {
			t.Fatalf("doc %d first pass: %d cache=%q %s", i, resp.StatusCode, resp.Header.Get("X-FFCD-Cache"), body)
		}
		first[i] = body
	}
	for i, doc := range docs {
		resp, body, err := postDoc(base, doc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-FFCD-Cache") != "hit" {
			t.Fatalf("doc %d second pass: %d cache=%q", i, resp.StatusCode, resp.Header.Get("X-FFCD-Cache"))
		}
		if !bytes.Equal(body, first[i]) {
			t.Fatalf("doc %d: cache hit not byte-identical to the miss", i)
		}
	}
	if hits := gatewayCounter(t, base, "gateway.hits"); hits != float64(len(docs)) {
		t.Fatalf("gateway.hits = %v, want %d", hits, len(docs))
	}

	if err := gw.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- gw.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gateway exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("gateway did not drain and exit after SIGTERM")
	}
}

// TestGatewayChaos is the kill-a-replica-under-load contract: three
// real replicas serve a warmed corpus through the gateway while
// closed-loop clients hammer it; one replica is SIGKILLed mid-load.
// The clients must see zero failed requests — the gateway's retry and
// failover absorb even the in-flight window — the ring must remap only
// the dead replica's shard, and every post-kill response must be
// byte-identical to its pre-kill counterpart. Every scrape of the
// gateway's metrics also checks that the pool-wide healthy count is
// the sum of the per-replica healthy gauges.
func TestGatewayChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and runs load")
	}
	var cmds []*exec.Cmd
	var urls []string
	for i := 0; i < 3; i++ {
		cmd, u := spawn(t, "replica")
		cmds = append(cmds, cmd)
		urls = append(urls, u)
	}
	_, base := spawn(t, "gateway",
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(urls, ","),
		"-probe-interval", "50ms",
		"-probe-timeout", "500ms",
		"-eject-after", "2",
		"-max-attempts", "4",
		"-base-delay", "5ms",
		"-hedge-after", "250ms",
		"-request-timeout", "10s",
	)

	// The test mirrors the gateway's routing table: same URLs, same
	// vnode count, so it can predict homes and failover targets.
	ring := cluster.NewRing(urls, 64)
	docs := loadgen.Corpus(24)
	keys := make([]runcache.Key, len(docs))
	for i, doc := range docs {
		k, err := serve.CanonicalKey(doc)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}

	// Warm pass: every doc solved once at its home replica.
	before := make([][]byte, len(docs))
	beforeReplica := make([]string, len(docs))
	for i, doc := range docs {
		resp, body, err := postDoc(base, doc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm pass doc %d: %d %s", i, resp.StatusCode, body)
		}
		before[i] = body
		beforeReplica[i] = resp.Header.Get("X-FFCD-Replica")
		if want := fmt.Sprint(ring.Owner(keys[i])); beforeReplica[i] != want {
			t.Fatalf("doc %d served by replica %s, ring homes it on %s", i, beforeReplica[i], want)
		}
	}

	if h := checkedScrape(t, base, len(urls), "gateway.healthy_replicas"); h != 3 {
		t.Fatalf("gateway.healthy_replicas = %v before the kill, want 3", h)
	}

	// Closed-loop background load across the whole corpus.
	loadCtx, stopLoad := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var loadRequests, loadFailures atomic.Int64
	var failureSample atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; loadCtx.Err() == nil; i++ {
				doc := docs[(w+i)%len(docs)]
				loadRequests.Add(1)
				resp, body, err := postDoc(base, doc)
				switch {
				case err != nil:
					loadFailures.Add(1)
					failureSample.Store(err.Error())
				case resp.StatusCode != http.StatusOK:
					loadFailures.Add(1)
					failureSample.Store(fmt.Sprintf("status %d: %s", resp.StatusCode, body))
				}
			}
		}(w)
	}

	// Let the load run, then SIGKILL one replica mid-stream.
	time.Sleep(300 * time.Millisecond)
	const victim = 1
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[victim].Wait()

	// The active probes must eject it promptly.
	deadline := time.Now().Add(5 * time.Second)
	for checkedScrape(t, base, len(urls), "gateway.ejections") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("gateway never ejected the killed replica")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Keep loading a little longer on the degraded pool.
	time.Sleep(300 * time.Millisecond)
	stopLoad()
	wg.Wait()

	if n := loadFailures.Load(); n != 0 {
		t.Fatalf("%d/%d client requests failed around the kill (e.g. %v); the retry/failover stack must absorb it",
			n, loadRequests.Load(), failureSample.Load())
	}
	if loadRequests.Load() < 50 {
		t.Fatalf("only %d load requests ran; chaos window too small to mean anything", loadRequests.Load())
	}

	// Post-kill pass: only the dead shard moved, each dead-shard doc
	// landed exactly on its ring failover target, and every byte of
	// every response is identical to the pre-kill answer.
	remapped := 0
	for i, doc := range docs {
		resp, body, err := postDoc(base, doc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill doc %d: %d %s", i, resp.StatusCode, body)
		}
		got := resp.Header.Get("X-FFCD-Replica")
		if ring.Owner(keys[i]) != victim {
			if got != beforeReplica[i] {
				t.Fatalf("doc %d homed on a survivor moved %s → %s; only the dead shard may remap",
					i, beforeReplica[i], got)
			}
		} else {
			remapped++
			want := ""
			for _, idx := range ring.Order(keys[i]) {
				if idx != victim {
					want = fmt.Sprint(idx)
					break
				}
			}
			if got != want {
				t.Fatalf("dead-shard doc %d served by %s, ring failover order says %s", i, got, want)
			}
		}
		if !bytes.Equal(stripWallNS(body), stripWallNS(before[i])) {
			t.Fatalf("doc %d: post-kill response differs from pre-kill bytes", i)
		}
	}
	if remapped == 0 {
		t.Fatal("no corpus doc was homed on the victim; chaos test proved nothing")
	}

	if h := checkedScrape(t, base, len(urls), "gateway.healthy_replicas"); h != 2 {
		t.Errorf("gateway.healthy_replicas = %v after the kill, want 2", h)
	}
	if r := checkedScrape(t, base, len(urls), "gateway.retries"); r < 1 {
		t.Errorf("gateway.retries = %v after a mid-load kill, want >= 1", r)
	}
	if h := checkedScrape(t, base, len(urls), "gateway.hits"); h < 1 {
		t.Errorf("gateway.hits = %v, want cache hits from the load loop", h)
	}
}
