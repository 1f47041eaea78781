package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"obfuscade/internal/cache"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
)

func TestNormalizeDefaultsAndValidation(t *testing.T) {
	norm, err := Request{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Part != "bar" || norm.Resolution != "coarse" || norm.Orientation != "x-y" {
		t.Fatalf("defaults = %+v", norm)
	}
	bad := []Request{
		{Part: "teapot"},
		{Resolution: "ultra"},
		{Orientation: "y-z"},
		{Orientation: "bogus"},
		{Orientation: "sideways"},
		{TimeoutMS: -1},
	}
	for _, r := range bad {
		if _, err := r.Normalize(); err == nil {
			t.Fatalf("request %+v must not normalize", r)
		}
	}
	// spec parses the orientation too, so a request that skipped
	// Normalize cannot silently fall back to x-y.
	if _, err := (Request{Resolution: "coarse", Orientation: "sideways"}).spec(); err == nil {
		t.Fatal("spec accepted an unknown orientation")
	}
}

func TestNormalizeOrientationAliases(t *testing.T) {
	for _, pair := range [][2]string{{"xy", "x-y"}, {"xz", "x-z"}} {
		short, err := Request{Orientation: pair[0], Seed: 3}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		long, err := Request{Orientation: pair[1], Seed: 3}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if short.Orientation != pair[1] {
			t.Errorf("%q normalized to %q, want %q", pair[0], short.Orientation, pair[1])
		}
		if short.CacheKey() != long.CacheKey() {
			t.Errorf("%q and %q requests have different cache keys", pair[0], pair[1])
		}
	}
}

func TestCacheKeyDerivation(t *testing.T) {
	base, err := Request{Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// timeout_ms must not affect the address: it changes when a job
	// fails, never what it produces.
	withTimeout := base
	withTimeout.TimeoutMS = 5000
	if base.CacheKey() != withTimeout.CacheKey() {
		t.Fatal("timeout_ms leaked into the cache key")
	}
	// Every output-determining field must affect the address.
	variants := []Request{
		{Part: "prism", Seed: 7},
		{Resolution: "fine", Seed: 7},
		{Orientation: "x-z", Seed: 7},
		{RestoreSphere: true, Seed: 7},
		{Seed: 8},
		{Simulate: true, Seed: 7},
	}
	for _, v := range variants {
		norm, err := v.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if norm.CacheKey() == base.CacheKey() {
			t.Fatalf("variant %+v collides with base key", v)
		}
	}
}

func TestDoHitIsByteIdentical(t *testing.T) {
	svc := NewService(0, printer.DimensionElite())
	req := Request{Seed: 1}
	first, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != cache.Miss {
		t.Fatalf("first call outcome = %s, want miss", first.Outcome)
	}
	second, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != cache.Hit {
		t.Fatalf("second call outcome = %s, want hit", second.Outcome)
	}
	if !bytes.Equal(first.STL, second.STL) {
		t.Fatal("cached STL differs from fresh run")
	}
	if !bytes.Equal(first.Manifest, second.Manifest) {
		t.Fatal("cached manifest differs from fresh run")
	}
	sum := sha256.Sum256(first.STL)
	if got := hex.EncodeToString(sum[:]); got != first.STLSHA256 {
		t.Fatalf("STL digest %s != reported %s", got, first.STLSHA256)
	}
	var manifest map[string]any
	if err := json.Unmarshal(first.Manifest, &manifest); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if manifest["stl_sha256"] != first.STLSHA256 {
		t.Fatal("manifest digest disagrees with result digest")
	}
	s := svc.CacheStats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("cache stats = %+v", s)
	}
}

// The cached artifact must be byte-identical to a fresh run at any pool
// size: caching extends the pipeline's determinism contract, it must
// not narrow it.
func TestDoDeterministicAcrossPoolSizes(t *testing.T) {
	req := Request{Seed: 42}
	defer parallel.SetDefault(0)

	runAt := func(workers int) *Result {
		parallel.SetDefault(workers)
		svc := NewService(0, printer.DimensionElite())
		res, err := svc.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := runAt(1)
	pooled := runAt(8)
	if !bytes.Equal(serial.STL, pooled.STL) {
		t.Fatal("STL bytes differ between pool sizes 1 and 8")
	}
	if serial.STLSHA256 != pooled.STLSHA256 {
		t.Fatalf("digests differ: %s vs %s", serial.STLSHA256, pooled.STLSHA256)
	}
	// stage_seconds is wall-clock-derived and exempt from the
	// determinism contract; every other manifest field must agree.
	stripTimes := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "stage_seconds")
		return m
	}
	a, b := stripTimes(serial.Manifest), stripTimes(pooled.Manifest)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("deterministic manifest fields differ:\n%s\n%s", aj, bj)
	}
}

func TestDoDistinctRequestsMiss(t *testing.T) {
	svc := NewService(0, printer.DimensionElite())
	a, err := svc.Do(context.Background(), Request{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Do(context.Background(), Request{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != cache.Miss || b.Outcome != cache.Miss {
		t.Fatalf("outcomes = %s, %s; want two misses", a.Outcome, b.Outcome)
	}
	// Seed is provenance metadata, not geometry: the STLs agree but the
	// manifests (and so the cache entries) do not.
	if !bytes.Equal(a.STL, b.STL) {
		t.Fatal("same geometry with different seeds must produce the same STL")
	}
	if bytes.Equal(a.Manifest, b.Manifest) {
		t.Fatal("manifests with different seeds must differ")
	}
	if s := svc.CacheStats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("cache stats = %+v", s)
	}
}

func TestDoValidationError(t *testing.T) {
	svc := NewService(0, printer.DimensionElite())
	if _, err := svc.Do(context.Background(), Request{Part: "teapot"}); err == nil {
		t.Fatal("invalid request must not run")
	}
	if s := svc.CacheStats(); s.Misses != 0 {
		t.Fatalf("invalid request reached the cache: %+v", s)
	}
}

// FuzzRequestKey decodes arbitrary bodies as POST /jobs does, then
// normalizes and addresses them. Invariants: nothing panics;
// normalizing a normalized request changes neither it nor its key; no
// non-negative timeout_ms changes the key; and the unhyphenated
// orientation spellings address the same artifact as x-y and x-z.
func FuzzRequestKey(f *testing.F) {
	for _, body := range []string{
		`{}`, `{"seed": 1}`, `{"seed": 12, "resolution": "coarse"}`, `{"seed": 2, "resolution": "fine"}`,
		`{"seed": 4, "timeout_ms": 1, "resolution": "fine", "simulate": true}`,
		`{"part": "bar-sphere", "orientation": "xz", "restore_sphere": true}`,
		`{"part": "teapot"}`, `{"resolution": "ultra"}`, `{"orientation": "diagonal"}`,
		`{"timeout_ms": -5}`, `{"unknown_field": 1}`,
	} {
		f.Add([]byte(body), int64(30000))
	}
	f.Fuzz(func(t *testing.T, body []byte, timeout int64) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		norm, err := req.Normalize()
		if err != nil {
			return
		}
		key := norm.CacheKey()
		if again, err := norm.Normalize(); err != nil || again != norm || again.CacheKey() != key {
			t.Fatalf("re-normalizing %+v gave %+v, %v", norm, again, err)
		}
		timed := norm
		timed.TimeoutMS = timeout & math.MaxInt64
		if n, err := timed.Normalize(); err != nil || n.CacheKey() != key {
			t.Fatalf("timeout_ms %d changed the key of %+v (err %v)", timed.TimeoutMS, norm, err)
		}
		spelled := req
		spelled.Orientation = strings.ReplaceAll(norm.Orientation, "-", "")
		if n, err := spelled.Normalize(); err != nil || n.CacheKey() != key {
			t.Fatalf("orientation %q addresses differently from %q (err %v)", spelled.Orientation, norm.Orientation, err)
		}
	})
}
