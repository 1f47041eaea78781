package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"

	"obfuscade/internal/cache"
	"obfuscade/internal/obs"
)

// legacyFrame builds a version-less frame of earlier builds: an optional
// 4-byte header word, then the length-prefixed fields.
func legacyFrame(header []byte, fields ...string) []byte {
	buf := append([]byte(nil), header...)
	for _, f := range fields {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// mapStore is an in-memory cache.Store.
type mapStore struct {
	mu sync.Mutex
	m  map[cache.Key][]byte
}

func (s *mapStore) Get(_ context.Context, key cache.Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	return data, ok
}

func (s *mapStore) Put(_ context.Context, key cache.Key, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
	return nil
}

// Objects in the version-less layout of earlier builds — a 4-field job
// frame and a 0xFFFFFFFF-sentinel sanitize frame — fail to decode, so
// the tiered cache counts a store error, recomputes, and overwrites them
// with current frames.
func TestLegacyFramesRecomputed(t *testing.T) {
	store := &mapStore{m: map[cache.Key][]byte{
		"job": legacyFrame(nil, "stl", "{}", "sha", "good"),
		"san": legacyFrame([]byte{0xFF, 0xFF, 0xFF, 0xFF}, "stl", "{}", "sha"),
	}}
	fresh := map[cache.Key]cache.Value{
		"job": &cachedResult{stl: []byte("new"), manifest: []byte("{}"), stlSHA: "h", grade: "good"},
		"san": &sanitizedResult{stl: []byte("new"), report: []byte("{}"), sha: "h"},
	}
	c := cache.NewTiered(0, store, resultCodec{})
	errs := obs.Default().Counter("cache.store.errors")
	before := errs.Value()
	for key, v := range fresh {
		got, out, err := c.GetOrCompute(context.Background(), key, func(context.Context) (cache.Value, error) {
			return v, nil
		})
		if err != nil || out != cache.Miss || got != v {
			t.Fatalf("%s: out=%v err=%v, want a recomputed miss", key, out, err)
		}
		want, _ := resultCodec{}.Encode(v)
		if data, _ := store.Get(context.Background(), key); !bytes.Equal(data, want) {
			t.Errorf("%s: legacy object not overwritten with the current frame", key)
		}
	}
	if n := errs.Value() - before; n != 2 {
		t.Errorf("cache.store.errors moved by %d, want 2", n)
	}
}

// FuzzResultCodec feeds arbitrary disk-tier payloads to Decode.
// Invariant: Decode never panics, and a payload it accepts re-encodes
// to exactly the same bytes.
func FuzzResultCodec(f *testing.F) {
	job, _ := resultCodec{}.Encode(&cachedResult{stl: []byte{0, 1, 0xff}, manifest: []byte(`{"k":"v"}`), stlSHA: "abc", grade: "good"})
	san, _ := resultCodec{}.Encode(&sanitizedResult{stl: []byte("solid"), report: []byte(`{}`), sha: "def"})
	f.Add(job)
	f.Add(san)
	f.Add(legacyFrame(nil, "stl", "{}", "sha", "good"))
	f.Add(legacyFrame([]byte{0xFF, 0xFF, 0xFF, 0xFF}, "stl", "{}", "sha"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := resultCodec{}.Decode(data)
		if err != nil {
			return
		}
		again, err := resultCodec{}.Encode(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, data)
		}
	})
}
