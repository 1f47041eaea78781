package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/stego"
	"obfuscade/internal/stl"
)

// stegoSTL builds a binary STL carrying a payload in both stego
// channels — the attacker-side input POST /sanitize exists to clean.
func stegoSTL(t *testing.T, payload []byte) []byte {
	t.Helper()
	m := &mesh.Mesh{}
	for b := 0; b < 12; b++ {
		fb := float64(b)
		m.Shells = append(m.Shells, mesh.BoxShell(
			fmt.Sprintf("shell%d", b), "body",
			geom.V3(fb*7, fb*3.5, 0), geom.V3(fb*7+4+fb/8, fb*3.5+2.5, 1.5+fb/4)))
	}
	emb, err := stego.Embed(m, payload, stego.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := stl.Marshal(emb, stl.Binary, "leaky")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postSanitize(t *testing.T, url string, body []byte) (sanitizeStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st sanitizeStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("POST %s: decoding reply: %v", url, err)
		}
	}
	return st, resp
}

func TestSanitizeEndToEnd(t *testing.T) {
	s := startTestServer(t, Options{})
	body := stegoSTL(t, []byte("stolen turbine blade profile"))

	st, resp := postSanitize(t, s.URL()+"/sanitize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.Outcome != "miss" || st.ID == "" || st.STLSHA256 == "" || st.STLBytes == 0 {
		t.Fatalf("first sanitize: %+v", st)
	}
	var rep stego.SanitizeReport
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Before.Suspicious() {
		t.Fatalf("detector missed the embedding: %+v", rep.Before)
	}
	if rep.After.Suspicious() {
		t.Fatalf("output still suspicious: %+v", rep.After)
	}
	if rep.Version != stego.Version || rep.Quantum != stego.DefaultQuantum {
		t.Fatalf("report = %+v", rep)
	}

	// The artifact is served by its content address, digest intact.
	clean, resp2 := fetch(t, s.URL()+st.STLURL)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: %d", resp2.StatusCode)
	}
	sum := sha256.Sum256(clean)
	if hex.EncodeToString(sum[:]) != st.STLSHA256 {
		t.Fatal("artifact digest mismatch")
	}
	if got := resp2.Header.Get("X-Stl-Sha256"); got != st.STLSHA256 {
		t.Fatalf("X-Stl-Sha256 = %q", got)
	}
	// No payload survives in the artifact.
	cleanMesh, err := stl.Unmarshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []stego.Channel{stego.ChannelFacetOrder, stego.ChannelCoordLSB} {
		if got, err := stego.Extract(cleanMesh, ch, stego.Options{}); err == nil {
			t.Fatalf("%s: payload %q recovered from sanitized artifact", ch, got)
		}
	}

	// A repeated upload is a cache hit on the same address.
	st2, _ := postSanitize(t, s.URL()+"/sanitize", body)
	if st2.Outcome != "hit" || st2.ID != st.ID || st2.STLSHA256 != st.STLSHA256 {
		t.Fatalf("repeat sanitize: %+v", st2)
	}

	// Sanitizing the sanitized output is the identity (a distinct
	// address — the body differs — but byte-identical output).
	st3, _ := postSanitize(t, s.URL()+"/sanitize", clean)
	if st3.Outcome != "miss" || st3.ID == st.ID {
		t.Fatalf("re-sanitize: %+v", st3)
	}
	if st3.STLSHA256 != st.STLSHA256 {
		t.Fatal("sanitize is not idempotent through the service")
	}

	// An address the server never computed is a 404.
	if _, resp := fetch(t, s.URL()+"/sanitize/deadbeef/stl"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown artifact: %d", resp.StatusCode)
	}
	// A job artifact address is not a sanitize artifact.
	job, _ := post(t, s.URL()+"/jobs?wait=1", `{"seed": 31}`)
	if _, resp := fetch(t, s.URL()+"/sanitize/"+job.ID+"/stl"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job address served as sanitize artifact: %d", resp.StatusCode)
	}
}

func TestSanitizeBadInput(t *testing.T) {
	s := startTestServer(t, Options{})
	cases := []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"empty", s.URL() + "/sanitize", nil, http.StatusBadRequest},
		{"garbage", s.URL() + "/sanitize", []byte("not an stl at all"), http.StatusUnprocessableEntity},
		{"bad quantum", s.URL() + "/sanitize?quantum=zero", []byte("x"), http.StatusBadRequest},
		{"negative quantum", s.URL() + "/sanitize?quantum=-1", []byte("x"), http.StatusBadRequest},
		{"oversize", s.URL() + "/sanitize", make([]byte, MaxSanitizeBytes+1), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		_, resp := postSanitize(t, tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Failures are never cached: the same garbage fails again, it does
	// not come back as a hit.
	_, resp := postSanitize(t, s.URL()+"/sanitize", []byte("not an stl at all"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("repeated garbage: %d", resp.StatusCode)
	}
}

// Sanitize runs share the job admission bound, but only actual compute
// counts: a full queue sheds a fresh upload with 429, while a cached
// address keeps answering (a hit adds no load).
func TestSanitizeShedsUnderLoadServesHits(t *testing.T) {
	s := startTestServer(t, Options{MaxQueue: 1})
	body := stegoSTL(t, []byte("warm me"))
	if st, _ := postSanitize(t, s.URL()+"/sanitize", body); st.Outcome != "miss" {
		t.Fatalf("warmup: %+v", st)
	}

	// Occupy the single queue slot with a fake in-flight job.
	norm, err := Request{Seed: 901}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	j := &job{id: string(norm.CacheKey()), req: norm, done: make(chan struct{}), created: time.Now()}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.inflight++
	s.mu.Unlock()

	fresh := stegoSTL(t, []byte("shed me"))
	_, resp := postSanitize(t, s.URL()+"/sanitize", fresh)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded sanitize: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed sanitize missing Retry-After")
	}
	// The warm address still answers while the queue is full.
	if st, _ := postSanitize(t, s.URL()+"/sanitize", body); st.Outcome != "hit" {
		t.Fatalf("hit under load: %+v", st)
	}

	// Drain the slot: the shed body is admitted now.
	s.mu.Lock()
	s.inflight--
	delete(s.jobs, j.id)
	s.mu.Unlock()
	if st, _ := postSanitize(t, s.URL()+"/sanitize", fresh); st.Outcome != "miss" {
		t.Fatalf("post-drain sanitize: %+v", st)
	}

	// A draining server refuses fresh sanitizes with 503.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	_, resp = postSanitize(t, s.URL()+"/sanitize", stegoSTL(t, []byte("late")))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sanitize: status %d", resp.StatusCode)
	}
}

// A restart on the same cache directory serves previously sanitized
// artifacts from the disk tier: the upload is a disk_hit and the
// artifact read survives the loss of process memory.
func TestSanitizeRestartWarmDiskHit(t *testing.T) {
	dir := t.TempDir()
	s1, err := Start(Options{Addr: "127.0.0.1:0", CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	body := stegoSTL(t, []byte("persist me"))
	st, _ := postSanitize(t, s1.URL()+"/sanitize", body)
	if st.Outcome != "miss" {
		t.Fatalf("first run: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	s2 := startTestServer(t, Options{CacheDir: dir})
	st2, _ := postSanitize(t, s2.URL()+"/sanitize", body)
	if st2.Outcome != "disk_hit" || st2.ID != st.ID || st2.STLSHA256 != st.STLSHA256 {
		t.Fatalf("restart sanitize: %+v", st2)
	}
	clean, resp := fetch(t, s2.URL()+st2.STLURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart artifact fetch: %d", resp.StatusCode)
	}
	sum := sha256.Sum256(clean)
	if hex.EncodeToString(sum[:]) != st.STLSHA256 {
		t.Fatal("restart artifact digest mismatch")
	}
}

func TestSanitizeCodecRoundTrip(t *testing.T) {
	codec := resultCodec{}
	san := &sanitizedResult{stl: []byte("solid bytes"), report: []byte(`{"x":1}`), sha: "abc123"}
	frame, err := codec.Encode(san)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*sanitizedResult)
	if !ok {
		t.Fatalf("decoded %T", v)
	}
	if !bytes.Equal(got.stl, san.stl) || !bytes.Equal(got.report, san.report) || got.sha != san.sha {
		t.Fatalf("round trip: %+v", got)
	}

	// Job frames share the disk tier; the kind byte tells them apart.
	jobFrame, err := codec.Encode(&cachedResult{stl: []byte("s"), manifest: []byte("m"), stlSHA: "h", grade: "good"})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := codec.Decode(jobFrame); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*cachedResult); !ok {
		t.Fatalf("job frame decoded as %T", v)
	}

	// Structural corruption fails loudly in both kinds.
	for name, data := range map[string][]byte{
		"truncated sanitize": frame[:len(frame)-1],
		"trailing sanitize":  append(append([]byte(nil), frame...), 0),
		"truncated job":      jobFrame[:len(jobFrame)-1],
		"empty sentinel":     {0xFF, 0xFF, 0xFF, 0xFF},
	} {
		if _, err := codec.Decode(data); err == nil {
			t.Errorf("%s: corrupt frame must error", name)
		}
	}
}

func TestSanitizeKeyStability(t *testing.T) {
	body := []byte("some stl bytes")
	k1 := SanitizeKey(body, stego.DefaultQuantum)
	if k2 := SanitizeKey(body, stego.DefaultQuantum); k2 != k1 {
		t.Fatal("key is not deterministic")
	}
	if k := SanitizeKey(body, stego.DefaultQuantum/2); k == k1 {
		t.Fatal("quantum does not reach the key")
	}
	if k := SanitizeKey([]byte("other stl bytes"), stego.DefaultQuantum); k == k1 {
		t.Fatal("body does not reach the key")
	}
}

func TestParseSanitizeQuantum(t *testing.T) {
	ok := func(raw string, want float64) {
		t.Helper()
		r, _ := http.NewRequest("POST", "/sanitize?"+raw, nil)
		got, err := ParseSanitizeQuantum(r)
		if err != nil || got != want {
			t.Fatalf("%q: %g, %v (want %g)", raw, got, err, want)
		}
	}
	ok("", stego.DefaultQuantum)
	ok("quantum=0.5", 0.5)
	for _, raw := range []string{"quantum=abc", "quantum=0", "quantum=-2", "quantum=NaN", "quantum=Inf"} {
		r, _ := http.NewRequest("POST", "/sanitize?"+raw, nil)
		if _, err := ParseSanitizeQuantum(r); err == nil {
			t.Errorf("%q: must error", raw)
		}
	}
}

// Sanitize requests appear in the access log with their cache outcome,
// like jobs.
func TestSanitizeAccessLogOutcome(t *testing.T) {
	var buf bytes.Buffer
	s := startTestServer(t, Options{AccessLog: &buf})
	body := stegoSTL(t, []byte("log me"))
	postSanitize(t, s.URL()+"/sanitize", body)
	postSanitize(t, s.URL()+"/sanitize", body)
	outcomes := []string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e AccessEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Path == "/sanitize" {
			outcomes = append(outcomes, e.Outcome)
		}
	}
	if len(outcomes) != 2 || outcomes[0] != "miss" || outcomes[1] != "hit" {
		t.Fatalf("sanitize outcomes in access log = %v", outcomes)
	}
}
