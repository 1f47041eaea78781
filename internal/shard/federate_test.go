package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"obfuscade/internal/obs"
	"obfuscade/internal/serve"
	"obfuscade/internal/trace"
)

// fakeMetricsShard is a minimal serve stand-in exposing only the debug
// surface the federation scrapes, with a scriptable snapshot and delay.
type fakeMetricsShard struct {
	addr  string
	srv   *httptest.Server
	mu    sync.Mutex
	snap  obs.Snapshot
	delay time.Duration
}

func newFakeMetricsShard(t *testing.T, snap obs.Snapshot) *fakeMetricsShard {
	t.Helper()
	f := &fakeMetricsShard{snap: snap}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		delay, snap := f.delay, f.snap
		f.mu.Unlock()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		data, err := snap.JSON()
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	f.srv = httptest.NewServer(mux)
	f.addr = trimScheme(f.srv.URL)
	t.Cleanup(f.srv.Close)
	return f
}

func counterSnap(pairs ...any) obs.Snapshot {
	var s obs.Snapshot
	for i := 0; i < len(pairs); i += 2 {
		s.Counters = append(s.Counters, obs.MetricValue{
			Name: pairs[i].(string), Value: int64(pairs[i+1].(int)),
		})
	}
	return s
}

func startFederationRouter(t *testing.T, scrape time.Duration, shards ...*fakeMetricsShard) *Router {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, f := range shards {
		addrs[i] = f.addr
	}
	rt, err := StartRouter(RouterOptions{
		Addr:          "127.0.0.1:0",
		Shards:        addrs,
		ProbeInterval: -1,
		ScrapeTimeout: scrape,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestClusterMetricsFederation pins the happy path over two answering
// shards: per-shard snapshots keyed by address, cluster counters that
// sum the shards, and a Prometheus rendering with shard labels plus the
// cluster namespace.
func TestClusterMetricsFederation(t *testing.T) {
	a := newFakeMetricsShard(t, counterSnap("cache.hits", 3, "serve.requests", 5))
	b := newFakeMetricsShard(t, counterSnap("cache.hits", 9, "serve.requests", 7))
	rt := startFederationRouter(t, 0, a, b)

	var view clusterMetrics
	if err := json.Unmarshal(getBody(t, rt.URL()+"/cluster/metrics.json"), &view); err != nil {
		t.Fatal(err)
	}
	if view.Stale {
		t.Fatalf("both shards answered but view is stale: %+v", view.Errors)
	}
	if len(view.Shards) != 2 {
		t.Fatalf("federated %d shards, want 2", len(view.Shards))
	}
	if v, _ := view.Shards[a.addr].Counter("cache.hits"); v != 3 {
		t.Fatalf("shard %s cache.hits = %d, want 3", a.addr, v)
	}
	if v, _ := view.Shards[b.addr].Counter("cache.hits"); v != 9 {
		t.Fatalf("shard %s cache.hits = %d, want 9", b.addr, v)
	}
	if v, _ := view.Cluster.Counter("cache.hits"); v != 12 {
		t.Fatalf("cluster cache.hits = %d, want 12", v)
	}
	if v, _ := view.Cluster.Counter("serve.requests"); v != 12 {
		t.Fatalf("cluster serve.requests = %d, want 12", v)
	}

	prom := string(getBody(t, rt.URL()+"/cluster/metrics"))
	for _, want := range []string{
		fmt.Sprintf("obfuscade_cache_hits_total{shard=%q} 3", a.addr),
		fmt.Sprintf("obfuscade_cache_hits_total{shard=%q} 9", b.addr),
		"obfuscade_cluster_cache_hits_total 12",
		"obfuscade_cluster_serve_requests_total 12",
		"obfuscade_cluster_federate_missing_shards 0",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus rendering missing %q:\n%s", want, prom)
		}
	}
}

// TestClusterMetricsStaleOnTimeout pins the partial-scrape contract: a
// shard that blows the scrape timeout is reported in errors, the view
// is flagged stale, and the cluster sums cover only the answering
// shards instead of blocking or failing the scrape.
func TestClusterMetricsStaleOnTimeout(t *testing.T) {
	fast := newFakeMetricsShard(t, counterSnap("cache.hits", 4))
	slow := newFakeMetricsShard(t, counterSnap("cache.hits", 100))
	slow.mu.Lock()
	slow.delay = 2 * time.Second
	slow.mu.Unlock()
	rt := startFederationRouter(t, 50*time.Millisecond, fast, slow)

	start := time.Now()
	var view clusterMetrics
	if err := json.Unmarshal(getBody(t, rt.URL()+"/cluster/metrics.json"), &view); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("scrape took %v; the timeout did not bound the slow shard", elapsed)
	}
	if !view.Stale {
		t.Fatal("slow shard missing but view not flagged stale")
	}
	if _, ok := view.Errors[slow.addr]; !ok {
		t.Fatalf("errors %v missing slow shard %s", view.Errors, slow.addr)
	}
	if _, ok := view.Shards[slow.addr]; ok {
		t.Fatal("slow shard present in snapshots despite timing out")
	}
	if v, _ := view.Cluster.Counter("cache.hits"); v != 4 {
		t.Fatalf("cluster cache.hits = %d, want only the fast shard's 4", v)
	}
	prom := string(getBody(t, rt.URL()+"/cluster/metrics"))
	if !strings.Contains(prom, "obfuscade_cluster_federate_missing_shards 1") {
		t.Errorf("prometheus rendering does not report the missing shard:\n%s", prom)
	}
}

// TestClusterRing pins the membership snapshot: per-shard state follows
// ejection, and counts plus vnode sizing are reported.
func TestClusterRing(t *testing.T) {
	a := newFakeMetricsShard(t, obs.Snapshot{})
	b := newFakeMetricsShard(t, obs.Snapshot{})
	rt := startFederationRouter(t, 0, a, b)
	rt.setHealth(b.addr, false)

	var view struct {
		Shards []ringShard `json:"shards"`
		Total  int         `json:"shards_total"`
		Down   int         `json:"shards_ejected"`
		VNodes int         `json:"vnodes_per_shard"`
	}
	if err := json.Unmarshal(getBody(t, rt.URL()+"/cluster/ring"), &view); err != nil {
		t.Fatal(err)
	}
	if view.Total != 2 || view.Down != 1 || view.VNodes != DefaultVirtualNodes {
		t.Fatalf("ring view = %+v", view)
	}
	states := map[string]string{}
	for _, s := range view.Shards {
		states[s.Addr] = s.State
		if s.VNodes != DefaultVirtualNodes {
			t.Fatalf("shard %s vnodes = %d", s.Addr, s.VNodes)
		}
	}
	if states[a.addr] != "ok" || states[b.addr] != "ejected" {
		t.Fatalf("states = %v", states)
	}
}

// syncBuf is a goroutine-safe buffer for capturing access logs written
// by server goroutines while the test reads them.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterEndToEndTracePropagation drives the acceptance path: a
// routed POST /jobs?wait=1 against a router over two real serve shards,
// all with access logging on. The shard-side serve/job span must parent
// under the router's proxy span with the same trace ID, the client's
// X-Request-ID must echo exactly once, and the router's and the owning
// shard's access-log entries must carry matching request and trace IDs.
func TestRouterEndToEndTracePropagation(t *testing.T) {
	var shardLog1, shardLog2, routerLog syncBuf
	s1, err := serve.Start(serve.Options{Addr: "127.0.0.1:0", AccessLog: &shardLog1})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := serve.Start(serve.Options{Addr: "127.0.0.1:0", AccessLog: &shardLog2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rt, err := StartRouter(RouterOptions{
		Addr:          "127.0.0.1:0",
		Shards:        []string{s1.Addr(), s2.Addr()},
		ProbeInterval: -1,
		AccessLog:     &routerLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	logs := map[string]*syncBuf{s1.Addr(): &shardLog1, s2.Addr(): &shardLog2}

	req, err := http.NewRequest("POST", rt.URL()+"/jobs?wait=1", strings.NewReader(`{"seed": 777}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.HeaderRequestID, "e2e-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ids := resp.Header.Values(http.CanonicalHeaderKey(trace.HeaderRequestID)); len(ids) != 1 || ids[0] != "e2e-req-1" {
		t.Fatalf("echoed request ids = %v, want exactly [e2e-req-1]", ids)
	}

	// The router's proxy span and the shard's job span share one process
	// recorder in this test, but the linkage is the real propagated one:
	// the shard adopted X-Obfuscade-Trace built from the router's span.
	var routerSpan, jobSpan *trace.Event
	waitFor(t, "router and shard spans", func() bool {
		routerSpan, jobSpan = nil, nil
		events := trace.Default().Events()
		for i := range events {
			e := &events[i]
			if e.Cat == "router" && e.Name == "jobs" && hasArg(e, "key", st.ID) {
				routerSpan = e
			}
			if e.Cat == "serve" && e.Name == "job" && hasArg(e, "key", st.ID) {
				jobSpan = e
			}
		}
		return routerSpan != nil && jobSpan != nil
	})
	if routerSpan.Trace == "" || jobSpan.Trace != routerSpan.Trace {
		t.Fatalf("trace ids: router %q, shard %q — must match and be non-empty",
			routerSpan.Trace, jobSpan.Trace)
	}
	if jobSpan.Parent != routerSpan.ID {
		t.Fatalf("shard job span parents under %d, want the router's proxy span %d",
			jobSpan.Parent, routerSpan.ID)
	}

	owner := rt.Ring().Owner(st.ID)
	var routerEntry, shardEntry serve.AccessEntry
	waitFor(t, "access-log entries on both sides", func() bool {
		return findEntry(routerLog.String(), "e2e-req-1", &routerEntry) &&
			findEntry(logs[owner].String(), "e2e-req-1", &shardEntry)
	})
	if routerEntry.Role != "router" || shardEntry.Role != "serve" {
		t.Fatalf("roles = %q/%q", routerEntry.Role, shardEntry.Role)
	}
	if routerEntry.Trace == "" || routerEntry.Trace != shardEntry.Trace {
		t.Fatalf("access-log trace ids: router %q, shard %q — must match",
			routerEntry.Trace, shardEntry.Trace)
	}
	if routerEntry.Trace != routerSpan.Trace {
		t.Fatalf("access-log trace %q != span trace %q", routerEntry.Trace, routerSpan.Trace)
	}
	if routerEntry.Shard != owner {
		t.Fatalf("router access entry shard = %q, want owner %q", routerEntry.Shard, owner)
	}
	if shardEntry.Outcome != "miss" {
		t.Fatalf("shard access entry outcome = %q, want miss", shardEntry.Outcome)
	}
}

func hasArg(e *trace.Event, key, value string) bool {
	for _, a := range e.Args {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// findEntry scans NDJSON access-log lines for the entry with the given
// request ID.
func findEntry(logText, reqID string, out *serve.AccessEntry) bool {
	for _, line := range strings.Split(logText, "\n") {
		if line == "" {
			continue
		}
		var e serve.AccessEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue
		}
		if e.RequestID == reqID {
			*out = e
			return true
		}
	}
	return false
}

// Ring exposes the placement ring to tests.
func (rt *Router) Ring() *Ring { return rt.ring }
