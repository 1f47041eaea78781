package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"obfuscade/internal/trace"
)

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// post submits a job body and decodes the status reply.
func post(t *testing.T, url, body string) (jobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("POST %s: decoding reply: %v", url, err)
	}
	return st, resp
}

func fetch(t *testing.T, url string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp
}

func TestServerEndToEnd(t *testing.T) {
	s := startTestServer(t, Options{})

	// First submission: a miss that runs the pipeline.
	first, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, first)
	}
	if first.State != "done" || first.Outcome != "miss" {
		t.Fatalf("first submission: %+v", first)
	}
	if first.STLSHA256 == "" || first.Grade == "" {
		t.Fatalf("missing artifact metadata: %+v", first)
	}

	// Identical submission: a hit with the identical digest.
	second, _ := post(t, s.URL()+"/jobs?wait=1", `{"seed": 1}`)
	if second.Outcome != "hit" {
		t.Fatalf("repeat submission outcome = %s, want hit", second.Outcome)
	}
	if second.ID != first.ID || second.STLSHA256 != first.STLSHA256 {
		t.Fatalf("repeat submission differs: %+v vs %+v", second, first)
	}

	// Distinct submission: a different job and a second miss.
	distinct, _ := post(t, s.URL()+"/jobs?wait=1", `{"seed": 2, "resolution": "fine"}`)
	if distinct.Outcome != "miss" || distinct.ID == first.ID {
		t.Fatalf("distinct submission: %+v", distinct)
	}

	// Cache counters surface on /metrics for scrapers. They are checked
	// before any artifact read: a read is a cache lookup too.
	metrics, _ := fetch(t, s.URL()+"/metrics")
	for _, name := range []string{"obfuscade_cache_hits_total", "obfuscade_cache_misses_total"} {
		if !strings.Contains(string(metrics), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
	st := s.Service().CacheStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache stats = %+v", st)
	}

	// The STL artifact hashes to the reported digest.
	stlBytes, resp := fetch(t, s.URL()+first.STLURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("STL fetch: %d", resp.StatusCode)
	}
	sum := sha256.Sum256(stlBytes)
	if got := hex.EncodeToString(sum[:]); got != first.STLSHA256 {
		t.Fatalf("served STL hashes to %s, reported %s", got, first.STLSHA256)
	}
	if h := resp.Header.Get("X-Stl-Sha256"); h != first.STLSHA256 {
		t.Fatalf("X-Stl-Sha256 = %s", h)
	}

	// The manifest is one provenance JSON line agreeing with the digest.
	manifest, _ := fetch(t, s.URL()+first.Manifest)
	var prov map[string]any
	if err := json.Unmarshal(manifest, &prov); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if prov["stl_sha256"] != first.STLSHA256 {
		t.Fatal("manifest digest disagrees with job status")
	}

	// The STL read went through the cache as one memory hit: the job
	// keeps no bytes, and the read ran no pipeline.
	if st := s.Service().CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("cache stats after the artifact read = %+v", st)
	}
}

func TestServerAsyncSubmitAndPoll(t *testing.T) {
	s := startTestServer(t, Options{})
	st, resp := post(t, s.URL()+"/jobs", `{"seed": 3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	if st.ID == "" {
		t.Fatalf("no job id: %+v", st)
	}
	deadline := time.After(60 * time.Second)
	for st.State != "done" {
		select {
		case <-deadline:
			t.Fatalf("job never finished: %+v", st)
		case <-time.After(20 * time.Millisecond):
		}
		body, resp := fetch(t, s.URL()+"/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" {
			t.Fatalf("job failed: %+v", st)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s := startTestServer(t, Options{})
	for _, body := range []string{
		`{"part": "teapot"}`,
		`{"resolution": "ultra"}`,
		`{"orientation": "diagonal"}`,
		`{"unknown_field": 1}`,
		`{"timeout_ms": -5}`,
		`not json`,
	} {
		st, resp := post(t, s.URL()+"/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%+v)", body, resp.StatusCode, st)
		}
	}
	if _, resp := fetch(t, s.URL()+"/jobs/no-such-job"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", resp.StatusCode)
	}
}

// A job whose deadline expires fails with a deadline error, and the
// server keeps serving fresh jobs afterwards — a timeout must not
// poison the worker pool or the cache.
func TestServerJobDeadline(t *testing.T) {
	s := startTestServer(t, Options{})
	// A fine-resolution simulated job so the 1ms deadline reliably
	// expires before the pipeline can finish (a coarse job on a warm
	// machine can beat the timer and flake).
	st, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 4, "timeout_ms": 1, "resolution": "fine", "simulate": true}`)
	if resp.StatusCode != http.StatusInternalServerError || st.State != "failed" {
		t.Fatalf("timed-out job: status %d %+v", resp.StatusCode, st)
	}
	if !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("error %q does not mention the deadline", st.Error)
	}
	// Errors are not cached: the same request with a sane deadline runs
	// fresh and succeeds.
	ok, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 4, "resolution": "fine", "simulate": true}`)
	if resp.StatusCode != http.StatusOK || ok.State != "done" || ok.Outcome != "miss" {
		t.Fatalf("post-timeout job: status %d %+v", resp.StatusCode, ok)
	}
}

// Shutdown refuses new submissions, drains in-flight jobs, and flushes
// one NDJSON provenance line per completed job.
func TestServerGracefulShutdownFlushesManifests(t *testing.T) {
	var manifests bytes.Buffer
	s := startTestServer(t, Options{ManifestOut: &manifests})
	for seed := 1; seed <= 3; seed++ {
		st, resp := post(t, s.URL()+"/jobs?wait=1", fmt.Sprintf(`{"seed": %d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d %+v", seed, resp.StatusCode, st)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	lines := strings.Split(strings.TrimRight(manifests.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("manifest lines = %d, want 3:\n%s", len(lines), manifests.String())
	}
	seeds := map[float64]bool{}
	for _, line := range lines {
		var prov map[string]any
		if err := json.Unmarshal([]byte(line), &prov); err != nil {
			t.Fatalf("manifest line %q: %v", line, err)
		}
		seeds[prov["seed"].(float64)] = true
	}
	if len(seeds) != 3 {
		t.Fatalf("flushed seeds = %v", seeds)
	}
	// The listener is closed: no new connection is accepted.
	if _, err := http.Get(s.URL() + "/healthz"); err == nil {
		t.Fatal("connection accepted after Shutdown")
	}
}

// A draining server refuses new submissions with 503.
func TestServerDrainingRefusesSubmissions(t *testing.T) {
	s := startTestServer(t, Options{})
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	norm, err := Request{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.submit(context.Background(), norm); !errors.Is(err, errDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
	st, resp := post(t, s.URL()+"/jobs", `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d %+v", resp.StatusCode, st)
	}
}

// Concurrent identical submissions coalesce onto one job entry.
func TestServerCoalescesIdenticalSubmissions(t *testing.T) {
	s := startTestServer(t, Options{})
	const n = 8
	type out struct {
		st   jobStatus
		code int
	}
	results := make(chan out, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(s.URL()+"/jobs?wait=1", "application/json",
				strings.NewReader(`{"seed": 9}`))
			if err != nil {
				results <- out{code: -1}
				return
			}
			defer resp.Body.Close()
			var st jobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			results <- out{st: st, code: resp.StatusCode}
		}()
	}
	ids := map[string]bool{}
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK || r.st.State != "done" {
			t.Fatalf("submission %d: code %d %+v", i, r.code, r.st)
		}
		ids[r.st.ID] = true
	}
	if len(ids) != 1 {
		t.Fatalf("identical submissions produced %d job ids", len(ids))
	}
	// All 8 submissions ran the pipeline at most once; every outcome
	// beyond the leader's is a hit or a coalesce, never a second miss.
	st := s.Service().CacheStats()
	if st.Misses != 1 {
		t.Fatalf("pipeline ran %d times for one unique request (stats %+v)", st.Misses, st)
	}
}

// ?wait follows strconv.ParseBool: absent and false values are async
// (202), truthy values block (200), garbage is a client error. A
// previous version treated any non-empty value as true, so ?wait=0
// blocked.
func TestWaitParameterSemantics(t *testing.T) {
	s := startTestServer(t, Options{})
	cases := []struct {
		query string
		code  int
	}{
		{"", http.StatusAccepted},
		{"?wait=0", http.StatusAccepted},
		{"?wait=false", http.StatusAccepted},
		{"?wait=1", http.StatusOK},
		{"?wait=true", http.StatusOK},
		{"?wait=banana", http.StatusBadRequest},
		{"?wait=yes", http.StatusBadRequest},
	}
	for _, tc := range cases {
		st, resp := post(t, s.URL()+"/jobs"+tc.query, `{"seed": 21}`)
		if resp.StatusCode != tc.code {
			t.Fatalf("wait query %q: status %d, want %d (%+v)", tc.query, resp.StatusCode, tc.code, st)
		}
		if tc.code == http.StatusOK && st.State != "done" {
			t.Fatalf("wait query %q: blocking submit returned state %s", tc.query, st.State)
		}
	}
}

// The finished-job registry is bounded: churning unique requests
// through a server prunes the oldest completed entries, the memory
// stays proportional to the cap, and a pruned id is just a 404 whose
// re-submission is a cache hit.
func TestJobRegistryBoundedUnderChurn(t *testing.T) {
	const cap = 4
	s := startTestServer(t, Options{MaxCompleted: cap})
	var firstID string
	for seed := 100; seed < 112; seed++ {
		st, resp := post(t, s.URL()+"/jobs?wait=1", fmt.Sprintf(`{"seed": %d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d %+v", seed, resp.StatusCode, st)
		}
		if firstID == "" {
			firstID = st.ID
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > cap {
		t.Fatalf("registry holds %d jobs after churn, cap is %d", n, cap)
	}
	// The oldest job was pruned: unknown id now, but its artifact
	// survives in the result cache so re-submission is an instant hit.
	if _, resp := fetch(t, s.URL()+"/jobs/"+firstID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned job id: status %d, want 404", resp.StatusCode)
	}
	st, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 100}`)
	if resp.StatusCode != http.StatusOK || st.Outcome != "hit" {
		t.Fatalf("re-submission of pruned job: status %d %+v", resp.StatusCode, st)
	}
}

// A draining server reports 503 from /healthz so load balancers stop
// routing to it. (It used to say 200 "draining", which balancers read
// as healthy.)
func TestHealthzDrainingReturns503(t *testing.T) {
	s := startTestServer(t, Options{})
	body, resp := fetch(t, s.URL()+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthy server: status %d body %s", resp.StatusCode, body)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	body, resp = fetch(t, s.URL()+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server healthz: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"status":"draining"`) {
		t.Fatalf("draining healthz body: %s", body)
	}
}

// Past the admission bound, new submissions are shed with 429 and a
// Retry-After hint while in-flight jobs are untouched; joining an
// in-flight run is always admitted.
func TestAdmissionQueueSheds(t *testing.T) {
	s := startTestServer(t, Options{MaxQueue: 2})

	// Fill the queue artificially: two registered in-flight jobs.
	hold := make([]*job, 2)
	s.mu.Lock()
	for i := range hold {
		norm, err := Request{Seed: int64(900 + i)}.Normalize()
		if err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
		j := &job{id: string(norm.CacheKey()), req: norm, done: make(chan struct{}), created: time.Now()}
		s.jobs[j.id] = j
		s.inflight++
		hold[i] = j
	}
	s.mu.Unlock()

	// A fresh submission is shed.
	st, resp := post(t, s.URL()+"/jobs", `{"seed": 950}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: status %d %+v", resp.StatusCode, st)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Joining one of the in-flight jobs is still admitted (202, running).
	join, resp := post(t, s.URL()+"/jobs", `{"seed": 900}`)
	if resp.StatusCode != http.StatusAccepted || join.State != "running" {
		t.Fatalf("join while full: status %d %+v", resp.StatusCode, join)
	}
	// The in-flight jobs are unaffected by the shed: still registered,
	// still running.
	s.mu.Lock()
	inflight := s.inflight
	s.mu.Unlock()
	if inflight != 2 {
		t.Fatalf("inflight = %d after shed, want 2", inflight)
	}

	// Release the slots; admission recovers.
	s.mu.Lock()
	for _, j := range hold {
		j.out, j.err = nil, errors.New("test: abandoned")
		s.inflight--
		close(j.done)
	}
	s.mu.Unlock()
	ok, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 951}`)
	if resp.StatusCode != http.StatusOK || ok.State != "done" {
		t.Fatalf("post-recovery submit: status %d %+v", resp.StatusCode, ok)
	}
}

// postJSON posts a body and returns the raw response.
func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// One batch request coalesces a quality-matrix sweep: per-item statuses
// come back in submission order, identical items share a job, and the
// pipeline runs once per unique request.
func TestBatchQualityMatrixSweep(t *testing.T) {
	s := startTestServer(t, Options{})
	body := `{"jobs": [
		{"seed": 31, "resolution": "coarse", "orientation": "x-y"},
		{"seed": 31, "resolution": "coarse", "orientation": "x-z"},
		{"seed": 31, "resolution": "fine", "orientation": "x-y"},
		{"seed": 31, "resolution": "fine", "orientation": "x-z"},
		{"seed": 31, "resolution": "coarse", "orientation": "x-y"}
	]}`
	resp, data := postJSON(t, s.URL()+"/jobs/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 5 {
		t.Fatalf("batch results = %d, want 5", len(br.Results))
	}
	ids := map[string]bool{}
	for i, st := range br.Results {
		if st.State != "done" {
			t.Fatalf("batch item %d: %+v", i, st)
		}
		if st.STLSHA256 == "" {
			t.Fatalf("batch item %d missing digest", i)
		}
		ids[st.ID] = true
	}
	// Item 4 duplicates item 0: four unique jobs, four pipeline runs.
	if len(ids) != 4 {
		t.Fatalf("batch produced %d unique jobs, want 4", len(ids))
	}
	if br.Results[0].ID != br.Results[4].ID {
		t.Fatal("identical batch items did not coalesce")
	}
	if st := s.Service().CacheStats(); st.Misses != 4 {
		t.Fatalf("pipeline ran %d times for 4 unique requests", st.Misses)
	}
}

func TestBatchValidation(t *testing.T) {
	s := startTestServer(t, Options{})
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"jobs": []}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"jobs": [{"part": "teapot"}]}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, data := postJSON(t, s.URL()+"/jobs/batch", tc.body)
		if resp.StatusCode != tc.code {
			t.Fatalf("batch body %q: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.code, data)
		}
	}
	// An oversize batch is refused outright.
	var sb strings.Builder
	sb.WriteString(`{"jobs": [`)
	for i := 0; i <= maxBatchJobs; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"seed": %d}`, i)
	}
	sb.WriteString(`]}`)
	resp, _ := postJSON(t, s.URL()+"/jobs/batch", sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d, want 400", resp.StatusCode)
	}
	// A draining server refuses batches like it refuses singles.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	resp, _ = postJSON(t, s.URL()+"/jobs/batch", `{"jobs": [{"seed": 1}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining batch: status %d, want 503", resp.StatusCode)
	}
}

// Batch admission is atomic: a batch whose new runs cannot fit under
// the queue bound is shed whole, leaving nothing half-started.
func TestBatchShedsAtomically(t *testing.T) {
	s := startTestServer(t, Options{MaxQueue: 1})
	s.mu.Lock()
	s.inflight = 1 // one slot, already taken
	s.mu.Unlock()
	resp, _ := postJSON(t, s.URL()+"/jobs/batch", `{"jobs": [{"seed": 61}, {"seed": 62}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed batch missing Retry-After")
	}
	s.mu.Lock()
	registered := len(s.jobs)
	s.inflight = 0
	s.mu.Unlock()
	if registered != 0 {
		t.Fatalf("shed batch left %d jobs registered", registered)
	}
}

// The restart-warm contract end to end: a server populated on a cache
// directory is stopped; a new server on the same directory serves the
// identical request from disk — no pipeline run, byte-identical STL.
func TestServerRestartWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := `{"seed": 77, "resolution": "coarse"}`

	s1 := startTestServer(t, Options{CacheDir: dir})
	first, resp := post(t, s1.URL()+"/jobs?wait=1", req)
	if resp.StatusCode != http.StatusOK || first.Outcome != "miss" {
		t.Fatalf("cold job: status %d %+v", resp.StatusCode, first)
	}
	stl1, resp := fetch(t, s1.URL()+first.STLURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("STL fetch: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2 := startTestServer(t, Options{CacheDir: dir})
	warm, resp := post(t, s2.URL()+"/jobs?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm job: status %d %+v", resp.StatusCode, warm)
	}
	if warm.Outcome != "disk_hit" {
		t.Fatalf("post-restart outcome = %s, want disk_hit", warm.Outcome)
	}
	if warm.STLSHA256 != first.STLSHA256 {
		t.Fatalf("digests differ across restart: %s vs %s", warm.STLSHA256, first.STLSHA256)
	}
	stl2, resp := fetch(t, s2.URL()+warm.STLURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm STL fetch: %d", resp.StatusCode)
	}
	if !bytes.Equal(stl1, stl2) {
		t.Fatal("restart-warm STL bytes differ from the original run")
	}
	// The pipeline did not run: the warm service saw one disk hit and
	// zero misses.
	if st := s2.Service().CacheStats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm cache stats = %+v", st)
	}
	if st, ok := s2.DiskStats(); !ok || st.Hits != 1 {
		t.Fatalf("disk stats = %+v ok=%v", st, ok)
	}
	// A second identical request is now a plain memory hit.
	again, _ := post(t, s2.URL()+"/jobs?wait=1", req)
	if again.Outcome != "hit" {
		t.Fatalf("second warm request outcome = %s, want hit", again.Outcome)
	}
}

// The resultCodec round-trips a cached result bit-exactly through the
// disk-frame encoding, and rejects malformed frames.
// The finished-job registry keeps no artifact bytes. Thirty-two
// custom-resolution jobs run against a 1 MiB memory tier, which holds at
// most two of their STLs; after a GC the heap must have grown by well
// under the STL bytes the jobs produced. A registry that kept each job's
// whole result pinned every STL outside the cache budget. Not parallel:
// it measures the process heap.
func TestJobRegistryHoldsNoArtifacts(t *testing.T) {
	s := startTestServer(t, Options{CacheBytes: 1 << 20})
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	var stlBytes int64
	for i := 0; i < 32; i++ {
		st, resp := post(t, s.URL()+"/jobs?wait=1", fmt.Sprintf(`{"seed": %d, "resolution": "custom"}`, 2000+i))
		if resp.StatusCode != http.StatusOK || st.State != "done" {
			t.Fatalf("job %d: status %d %+v", i, resp.StatusCode, st)
		}
		stlBytes += int64(st.STLBytes)
	}
	growth := heap() - before
	t.Logf("heap growth %d B for %d B of STL", growth, stlBytes)
	if growth >= stlBytes/4 {
		t.Fatalf("heap grew %d B over 32 finished jobs with %d B of STL: the registry pins artifacts",
			growth, stlBytes)
	}
}

// On a tiered server an STL read after the memory tier has evicted the
// artifact comes back from disk, byte-identical, without a pipeline run.
func TestSTLReadAfterEvictionIsDiskHit(t *testing.T) {
	s := startTestServer(t, Options{CacheDir: t.TempDir(), CacheBytes: 1})
	first, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 41}`)
	if resp.StatusCode != http.StatusOK || first.Outcome != "miss" {
		t.Fatalf("cold job: status %d %+v", resp.StatusCode, first)
	}
	// A 1-byte memory tier retains nothing: the artifact lives on disk only.
	if st := s.Service().CacheStats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("cache stats after the job = %+v", st)
	}
	body, resp := fetch(t, s.URL()+first.STLURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("STL fetch: %d", resp.StatusCode)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != first.STLSHA256 || len(body) != first.STLBytes {
		t.Fatalf("served %d B hashing to %s, job reported %d B hashing to %s",
			len(body), got, first.STLBytes, first.STLSHA256)
	}
	if st := s.Service().CacheStats(); st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after the read = %+v, want one disk hit and no new miss", st)
	}
}

// On a memory-only server whose tier has dropped the artifact, an STL
// read re-runs the job: a second miss, byte-identical bytes.
func TestSTLReadAfterEvictionReruns(t *testing.T) {
	s := startTestServer(t, Options{CacheBytes: 1})
	first, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 42}`)
	if resp.StatusCode != http.StatusOK || first.Outcome != "miss" {
		t.Fatalf("cold job: status %d %+v", resp.StatusCode, first)
	}
	body, resp := fetch(t, s.URL()+first.STLURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("STL fetch: %d", resp.StatusCode)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != first.STLSHA256 {
		t.Fatalf("re-run STL hashes to %s, job reported %s", got, first.STLSHA256)
	}
	if st := s.Service().CacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cache stats after the read = %+v, want a second miss", st)
	}
}

// The pipeline re-run behind an evicted STL counts against the admission
// bound: a full queue sheds the read with 429 + Retry-After, a draining
// server refuses it with 503, and a free slot serves it.
func TestSTLReRunIsAdmitted(t *testing.T) {
	s := startTestServer(t, Options{MaxQueue: 1, CacheBytes: 1})
	first, resp := post(t, s.URL()+"/jobs?wait=1", `{"seed": 43}`)
	if resp.StatusCode != http.StatusOK || first.State != "done" {
		t.Fatalf("cold job: status %d %+v", resp.StatusCode, first)
	}
	// Occupy the only slot, as an in-flight job would.
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	if _, resp := fetch(t, s.URL()+first.STLURL); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("STL re-run with a full queue: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	s.mu.Lock()
	inflight := s.inflight
	s.inflight--
	s.mu.Unlock()
	if inflight != 1 {
		t.Fatalf("inflight = %d after the shed read, want 1", inflight)
	}
	body, resp := fetch(t, s.URL()+first.STLURL)
	sum := sha256.Sum256(body)
	if resp.StatusCode != http.StatusOK || hex.EncodeToString(sum[:]) != first.STLSHA256 {
		t.Fatalf("STL re-run with a free slot: status %d, sha256 %x, want %s", resp.StatusCode, sum, first.STLSHA256)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if _, resp := fetch(t, s.URL()+first.STLURL); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("STL re-run while draining: status %d, want 503", resp.StatusCode)
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	in := &cachedResult{
		stl:      []byte{0x00, 0x01, 0xff, 0xfe},
		manifest: []byte(`{"k":"v"}`),
		stlSHA:   "abc123",
		grade:    "degraded",
	}
	data, err := resultCodec{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	v, err := resultCodec{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out := v.(*cachedResult)
	if !bytes.Equal(out.stl, in.stl) || !bytes.Equal(out.manifest, in.manifest) ||
		out.stlSHA != in.stlSHA || out.grade != in.grade {
		t.Fatalf("round trip mangled the result: %+v", out)
	}
	for _, bad := range [][]byte{nil, {1}, data[:len(data)-1], append(append([]byte(nil), data...), 0)} {
		if _, err := (resultCodec{}).Decode(bad); err == nil {
			t.Fatalf("malformed frame of %d bytes decoded", len(bad))
		}
	}
}

// TestServerAdoptsTraceAndLogsAccess drives a live server with a
// propagated trace header plus an access-log writer, and asserts both
// halves of the cluster-observability contract: the async job's
// "serve"/"job" span parents under the remote span from the header, and
// the access log carries the request/trace IDs with the cache outcome.
func TestServerAdoptsTraceAndLogsAccess(t *testing.T) {
	var logBuf bytes.Buffer
	s := startTestServer(t, Options{AccessLog: &logBuf})

	req, err := http.NewRequest("POST", s.URL()+"/jobs?wait=1", strings.NewReader(`{"seed": 404}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Obfuscade-Trace", "feedfacefeedface-31337")
	req.Header.Set("X-Request-ID", "req-adopt-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-adopt-1" {
		t.Fatalf("echoed request id %q, want req-adopt-1", got)
	}

	// The job span must carry the header's trace ID and parent under its
	// span ID even though the job ran detached from the HTTP request.
	foundJob := false
	for _, e := range trace.Default().Events() {
		if e.Cat == "serve" && e.Name == "job" && e.Trace == "feedfacefeedface" {
			foundJob = true
			if e.Parent != 31337 {
				t.Fatalf("job span parent = %d, want remote 31337", e.Parent)
			}
		}
	}
	if !foundJob {
		t.Fatal("no serve/job span carrying the propagated trace id")
	}

	var entry AccessEntry
	if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
		t.Fatalf("access log %q: %v", logBuf.String(), err)
	}
	if entry.RequestID != "req-adopt-1" || entry.Trace != "feedfacefeedface" {
		t.Fatalf("access entry ids = %q/%q", entry.RequestID, entry.Trace)
	}
	if entry.Role != "serve" || entry.Status != http.StatusOK || entry.Outcome != "miss" {
		t.Fatalf("access entry = %+v", entry)
	}
}
