package main

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/nettheory/feedbackflow/internal/runcache"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// corpus is a workload's documents for one seed and their content
// addresses.
type corpus struct {
	w      *workload
	seed   int64
	docs   [][]byte // nil for a Distinct workload
	keys   []runcache.Key
	digest string
}

// prepareCorpus generates the corpus and its digest: SHA-256 over
// serve.CanonicalKey of each document, in order. Two runs with the
// same digest sent the same canonical scenarios, whatever bytes
// encoded them, so the digest is the workload's identity across
// commits.
func prepareCorpus(w *workload, seed int64) (*corpus, error) {
	c := &corpus{w: w, seed: seed, keys: make([]runcache.Key, w.Corpus)}
	if !w.Distinct {
		c.docs = make([][]byte, w.Corpus)
	}
	h := sha256.New()
	for i := 0; i < w.Corpus; i++ {
		doc := w.Doc(seed, i)
		key, err := serve.CanonicalKey(doc)
		if err != nil {
			return nil, fmt.Errorf("%s document %d: %w", w.Name, i, err)
		}
		c.keys[i] = key
		if c.docs != nil {
			c.docs[i] = doc
		}
		h.Write(key[:])
	}
	c.digest = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

func (c *corpus) doc(i int) []byte {
	if i < len(c.docs) {
		return c.docs[i]
	}
	return c.w.Doc(c.seed, i)
}

// key returns the cache model's key for document i. Past the digested
// prefix (solve-hetero runs past it) documents are told apart by their
// bytes, which is as good as their content address: the generators
// name each document by its index, and the name is part of the
// canonical form, so distinct documents are distinct cache entries.
func (c *corpus) key(i int, doc []byte) runcache.Key {
	if i < len(c.keys) {
		return c.keys[i]
	}
	return runcache.KeyOf(doc)
}

// cacheModel replays the request sequence against a model of each
// replica's LRU cache (entry-bounded, as the workloads configure
// ffcd), so every request's cache verdict is known before it is sent.
// It also keeps the body each cached entry was filled with: a hit
// must return exactly those bytes.
type cacheModel struct {
	mu       sync.Mutex
	capacity int
	owner    func(runcache.Key) int
	lru      []*list.List
	at       []map[runcache.Key]*list.Element
	bodies   map[runcache.Key][]byte
	keep     bool

	hits, misses int
}

func newCacheModel(w *workload, d *deployment) *cacheModel {
	m := &cacheModel{capacity: w.CacheEntries, keep: !w.Distinct, bodies: map[runcache.Key][]byte{}}
	if m.capacity <= 0 {
		m.capacity = 1024 // ffcd's default
	}
	m.owner = func(runcache.Key) int { return 0 }
	if d.gw != nil {
		m.owner = d.gw.Ring().Owner
	}
	for range d.replicas {
		m.lru = append(m.lru, list.New())
		m.at = append(m.at, map[runcache.Key]*list.Element{})
	}
	return m
}

// access records one request for key and returns whether the owning
// replica's cache must answer it as a hit, and which replica owns it.
func (m *cacheModel) access(key runcache.Key) (hit bool, owner int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	owner = m.owner(key)
	ll, at := m.lru[owner], m.at[owner]
	if el, ok := at[key]; ok {
		ll.MoveToFront(el)
		m.hits++
		return true, owner
	}
	m.misses++
	at[key] = ll.PushFront(key)
	for ll.Len() > m.capacity {
		back := ll.Back()
		k := back.Value.(runcache.Key)
		ll.Remove(back)
		delete(at, k)
		delete(m.bodies, k)
	}
	return false, owner
}

func (m *cacheModel) body(key runcache.Key) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bodies[key]
	return b, ok
}

func (m *cacheModel) remember(key runcache.Key, body []byte) {
	if !m.keep {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, cached := m.at[m.owner(key)][key]; cached {
		m.bodies[key] = append([]byte(nil), body...)
	}
}

func (m *cacheModel) counts() (hits, misses int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// stack is one set-up workload: corpus, deployment, cache model, and
// the clients' request sequences (positioned after the warm-up).
type stack struct {
	w      *workload
	seed   int64
	corpus *corpus
	dep    *deployment
	model  *cacheModel
	seqs   []func() int
	http   *http.Client
	// setupFailures are checks the warm-up requests failed.
	setupFailures []string
	// mutate, when set, rewrites every response body before it is
	// checked; the tests use it to prove a corrupted body fails.
	mutate func([]byte) []byte
}

// setUp is the timed set-up: corpus generation and digest, starting
// the servers, and the cache-warming requests.
func setUp(w *workload, seed int64, traced bool) (*stack, error) {
	c, err := prepareCorpus(w, seed)
	if err != nil {
		return nil, err
	}
	d, err := deploy(w, traced)
	if err != nil {
		return nil, err
	}
	st := &stack{
		w: w, seed: seed, corpus: c, dep: d,
		model: newCacheModel(w, d),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: w.Clients,
			DisableCompression:  true,
		}},
	}
	for cl := 0; cl < w.Clients; cl++ {
		st.seqs = append(st.seqs, w.Seq(seed, cl))
	}
	var buf bytes.Buffer
	for _, i := range w.Warm(st.seqs[0]) {
		if err := st.warm(i, &buf); err != nil {
			st.setupFailures = append(st.setupFailures, fmt.Sprintf("warm-up document %d: %v", i, err))
		}
	}
	st.model.hits, st.model.misses = 0, 0
	return st, nil
}

func (st *stack) close() error {
	st.http.CloseIdleConnections()
	return st.dep.close()
}

// warm sends document i during set-up and checks the answer.
func (st *stack) warm(i int, buf *bytes.Buffer) error {
	doc := st.corpus.doc(i)
	key := st.corpus.key(i, doc)
	hit, owner := st.model.access(key)
	status, hdr, body, err := post(st.http, st.dep.url, doc, buf)
	if err != nil {
		return err
	}
	return st.check(key, hit, owner, status, hdr, body)
}

// check is the per-request output check. A hit must return the exact
// bytes its entry was filled with; a miss must carry a converged
// report whose gateways all satisfy the conservation identity.
func (st *stack) check(key runcache.Key, hit bool, owner, status int, hdr http.Header, body []byte) error {
	if st.mutate != nil {
		body = st.mutate(body)
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	want := "miss"
	if hit {
		want = "hit"
	}
	if got := hdr.Get("X-FFCD-Cache"); got != want {
		return fmt.Errorf("cache verdict %q, the LRU model expects %q", got, want)
	}
	if st.dep.gw != nil {
		if got := hdr.Get("X-FFCD-Replica"); got != strconv.Itoa(owner) {
			return fmt.Errorf("served by replica %q, home replica is %d", got, owner)
		}
	}
	if hit && st.model.keep {
		prev, ok := st.model.body(key)
		if !ok {
			return fmt.Errorf("hit on an entry the client never saw filled")
		}
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("hit body differs from the body its entry was filled with")
		}
		return nil
	}
	if err := checkReport(body); err != nil {
		return err
	}
	st.model.remember(key, body)
	return nil
}

func post(client *http.Client, url string, doc []byte, buf *bytes.Buffer) (int, http.Header, []byte, error) {
	resp, err := client.Post(url+"/run", "application/json", bytes.NewReader(doc))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, buf.Bytes(), nil
}

// sample is a response kept for the after-run identity checks.
type sample struct {
	doc  int
	body []byte
}

// window is what one timed run measured.
type window struct {
	attempted, failed int
	// rps and cpuPerReqUS hold one value per quiet slice of the window
	// (see quietSlices): its completed requests per second of CPU time
	// the guest had, and the process CPU time per completed request.
	// quietLatMS are the latencies of the requests that completed in
	// those slices, latMS all of them.
	rps, cpuPerReqUS        []float64
	latMS, quietLatMS       []float64
	traceLatMS              map[string]float64
	peakRSSMB               float64
	allocBytes              uint64
	gcCycles                uint32
	stealPct, quietStealPct float64
	samples                 []sample
	failures                []string
	// scrape holds the cache counters read when client 0 completed
	// scrapeAt timed requests (or at the end, if it never did), total
	// those read at the end of the window; both count from its start.
	scrape, totalScrape cacheScrape
}

type cacheScrape struct {
	hits, misses, evictions, bytes float64
}

const (
	samplesPerClient = 8
	sampleOdds       = 32 // one request in sampleOdds is kept for the identity checks
	scrapeAt         = 1000
	maxFailureNotes  = 8
	slices           = 10
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meter is what the clients publish for the slice sampler.
type meter struct {
	completed atomic.Int64
}

type mark struct {
	wall, cpu        time.Duration
	completed, steal int64
}

func (m *meter) read(start time.Time) mark {
	return mark{wall: time.Since(start), cpu: cpuTime(), completed: m.completed.Load(), steal: stealTicks()}
}

// job is a request a client has prepared: document i and its cache
// model key.
type job struct {
	i   int
	doc []byte
	key runcache.Key
}

// answer is a response handed to a client's checker.
type answer struct {
	job
	attempt, owner int
	hit            bool
	status         int
	hdr            http.Header
	body           *bytes.Buffer
	err            error
}

// clientOut is what one client measured and checked.
type clientOut struct {
	attempted, failed int
	lat, doneAt       []float64 // latency, and completion time since the start, in ms
	traceLat          map[string]float64
	samples           []sample
	failures          []string
}

// measure runs the clients closed-loop for dur (or until each has
// sent maxPerClient requests, when that is positive), reading the
// meter at the end of each of `slices` equal slices of the window.
// Each client is a pipeline of three goroutines: one generates the
// next document while the current request is in flight, the sender
// sends one request at a time, and one checks each answer while the
// next request is in flight. The client's own work thus overlaps the
// serving on the machine's other CPU instead of stalling the loop, and
// all of it stays in the window's wall and CPU time.
func (st *stack) measure(dur time.Duration, maxPerClient int, traced bool) *window {
	w := st.w
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := st.scrapeSince(cacheScrape{})
	outs := make([]clientOut, w.Clients)
	var scrape cacheScrape
	scraped := false
	var m meter
	start := time.Now()
	deadline := start.Add(dur)
	marks := []mark{m.read(start)}
	var wg sync.WaitGroup
	for cl := 0; cl < w.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			out := &outs[cl]
			out.lat = make([]float64, 0, 1<<14)
			out.doneAt = make([]float64, 0, 1<<14)
			if traced {
				out.traceLat = map[string]float64{}
			}
			jobs, stop := st.prepare(cl)
			defer stop()
			answers := make(chan answer, 1)
			// Two buffers: the checker reads one answer while the
			// sender receives the next into the other.
			free := make(chan *bytes.Buffer, 2)
			free <- new(bytes.Buffer)
			free <- new(bytes.Buffer)
			checked := make(chan struct{})
			go func() {
				defer close(checked)
				st.checkAnswers(cl, out, answers, free)
			}()
			for time.Now().Before(deadline) && (maxPerClient <= 0 || out.attempted < maxPerClient) {
				buf := <-free
				j := <-jobs
				// The model is fed in send order, one access per
				// request sent.
				hit, owner := st.model.access(j.key)
				out.attempted++
				t0 := time.Now()
				status, hdr, _, err := post(st.http, st.dep.url, j.doc, buf)
				lat := time.Since(t0)
				m.completed.Add(1)
				if err == nil {
					out.lat = append(out.lat, float64(lat.Nanoseconds())/1e6)
					out.doneAt = append(out.doneAt, float64(time.Since(start).Nanoseconds())/1e6)
					if traced {
						out.traceLat[hdr.Get("X-FFCD-Trace-ID")] = float64(lat.Nanoseconds()) / 1e6
					}
				}
				if cl == 0 && !scraped && out.attempted == scrapeAt {
					// Before the next request is sent, so the counters
					// hold exactly scrapeAt timed requests.
					scrape = st.scrapeSince(base)
					scraped = true
				}
				answers <- answer{job: j, attempt: out.attempted, owner: owner, hit: hit, status: status, hdr: hdr, body: buf, err: err}
			}
			close(answers)
			<-checked
		}(cl)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(dur / slices)
sampling:
	for {
		select {
		case <-tick.C:
			if len(marks) < slices {
				marks = append(marks, m.read(start))
			}
		case <-done:
			break sampling
		}
	}
	tick.Stop()
	marks = append(marks, m.read(start))

	res := &window{peakRSSMB: peakRSSMB()}
	quiet := quietSlices(marks)
	var quietSteal, quietWall time.Duration
	for _, j := range quiet {
		a, b := marks[j], marks[j+1]
		n := float64(b.completed - a.completed)
		stolen := stealShare(b.steal - a.steal)
		eff := (b.wall - a.wall) - stolen
		quietSteal += stolen
		quietWall += b.wall - a.wall
		if n == 0 || eff <= 0 {
			continue
		}
		res.rps = append(res.rps, n/eff.Seconds())
		res.cpuPerReqUS = append(res.cpuPerReqUS, us(b.cpu-a.cpu)/n)
	}
	last := marks[len(marks)-1]
	res.stealPct = 100 * ratio(float64(stealShare(last.steal-marks[0].steal)), float64(last.wall))
	res.quietStealPct = 100 * ratio(float64(quietSteal), float64(quietWall))
	runtime.ReadMemStats(&ms1)
	if !scraped {
		scrape = st.scrapeSince(base)
	}
	res.scrape = scrape
	res.totalScrape = st.scrapeSince(base)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	for _, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
		res.latMS = append(res.latMS, o.lat...)
		for k, at := range o.doneAt {
			for _, j := range quiet {
				if at > float64(marks[j].wall.Nanoseconds())/1e6 && at <= float64(marks[j+1].wall.Nanoseconds())/1e6 {
					res.quietLatMS = append(res.quietLatMS, o.lat[k])
					break
				}
			}
		}
		res.samples = append(res.samples, o.samples...)
		res.failures = append(res.failures, o.failures...)
		if traced {
			if res.traceLatMS == nil {
				res.traceLatMS = map[string]float64{}
			}
			for k, v := range o.traceLat {
				res.traceLatMS[k] = v
			}
		}
	}
	return res
}

// prepare starts client cl's document generator: it draws the next
// index of the client's sequence and generates the document ahead of
// the sender, one job in hand. stop ends it and waits until it has.
func (st *stack) prepare(cl int) (jobs <-chan job, stop func()) {
	ch := make(chan job, 1)
	quit, ended := make(chan struct{}), make(chan struct{})
	next := st.seqs[cl]
	go func() {
		defer close(ended)
		for {
			i := next()
			doc := st.corpus.doc(i)
			select {
			case ch <- job{i: i, doc: doc, key: st.corpus.key(i, doc)}:
			case <-quit:
				return
			}
		}
	}()
	return ch, func() { close(quit); <-ended }
}

// checkAnswers checks client cl's answers in the order they were sent
// (a hit's body is compared with the body an earlier answer filled its
// entry with), keeps a seeded sample of them for the after-run
// checks, and returns each buffer to free.
func (st *stack) checkAnswers(cl int, out *clientOut, answers <-chan answer, free chan<- *bytes.Buffer) {
	pick := rand.New(rand.NewSource(st.seed*101 + int64(cl)))
	for a := range answers {
		err := a.err
		if err == nil {
			err = st.check(a.key, a.hit, a.owner, a.status, a.hdr, a.body.Bytes())
		}
		if err != nil {
			out.failed++
			if len(out.failures) < maxFailureNotes {
				out.failures = append(out.failures, fmt.Sprintf("request %d (document %d): %v", a.attempt, a.i, err))
			}
		} else if len(out.samples) < samplesPerClient && pick.Intn(sampleOdds) == 0 {
			out.samples = append(out.samples, sample{doc: a.i, body: append([]byte(nil), a.body.Bytes()...)})
		}
		free <- a.body
	}
}

// stealTicks reads the machine's steal time from /proc/stat, in clock
// ticks (1/100 s): the time the hypervisor ran other guests on this
// one's CPUs. On a shared virtual machine it is the main source of
// run-to-run noise. It returns 0 where it is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// stealShare converts steal ticks, summed over the machine's CPUs,
// into the wall time one CPU lost.
func stealShare(ticks int64) time.Duration {
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(runtime.NumCPU())
}

// calmSteal is the stolen share of a slice's CPU time up to which the
// slice counts as calm.
const calmSteal = 0.01

// quietSlices returns, in time order, the indices j of the window's
// slices [marks[j], marks[j+1]] the metrics are taken over: every calm
// slice, or, when fewer than half of them are calm, the half (rounded
// up) in which the hypervisor stole the least CPU time. A burst of a
// neighbouring guest's load covering less than half of the window then
// moves no metric, and a calm window is measured whole.
func quietSlices(marks []mark) []int {
	n := len(marks) - 1
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	frac := func(j int) float64 {
		return ratio(float64(stealShare(marks[j+1].steal-marks[j].steal)), float64(marks[j+1].wall-marks[j].wall))
	}
	sort.SliceStable(idx, func(a, b int) bool { return frac(idx[a]) < frac(idx[b]) })
	k := (n + 1) / 2
	for k < n && frac(idx[k]) <= calmSteal {
		k++
	}
	idx = idx[:k]
	sort.Ints(idx)
	return idx
}

// scrapeSince reads the replicas' cache counters as deltas from
// base; bytes is a level, so it is read as is.
func (st *stack) scrapeSince(base cacheScrape) cacheScrape {
	h, m, e, b := st.dep.cacheCounters()
	return cacheScrape{hits: h - base.hits, misses: m - base.misses, evictions: e - base.evictions, bytes: b}
}
