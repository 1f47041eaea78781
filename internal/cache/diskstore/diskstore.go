// Package diskstore is the persistent tier of the two-tier result
// cache: a content-addressed on-disk store keyed by the same hex
// SHA-256 addresses as the in-memory LRU (internal/cache). Because the
// key already hashes core.PipelineVersion, a deploy that changes
// pipeline output bytes misses naturally — old objects age out under
// the byte budget instead of poisoning new builds.
//
// Contracts the cache layer relies on:
//
//   - Writes are atomic: an object is written to a temp file in the
//     same directory, fsynced, then renamed into place. Readers never
//     observe a partial object; a crash leaves only temp files, which
//     Open sweeps away.
//   - Reads are self-checking: every object carries a SHA-256 of its
//     payload, verified on each read. A corrupt object (bit rot,
//     truncation, torn write from a dying kernel) is deleted and
//     reported as a miss — never returned.
//   - Residency is bounded: when resident bytes pass the budget, the
//     least-recently-used objects are garbage-collected. Recency
//     survives restarts through an append-only atime journal that is
//     replayed and compacted on Open.
//
// Lookup outcomes feed package obs (cache.disk.* metrics) and each
// lookup emits a trace span tagged with its outcome.
package diskstore

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"obfuscade/internal/cache"
	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

// Disk-tier metrics. The process-wide registry aggregates across
// instances; per-instance numbers come from Store.Stats.
var (
	mHits    = obs.Default().Counter("cache.disk.hits")
	mMisses  = obs.Default().Counter("cache.disk.misses")
	mGC      = obs.Default().Counter("cache.disk.gc_evictions")
	mCorrupt = obs.Default().Counter("cache.disk.corrupt")
	mPutErrs = obs.Default().Counter("cache.disk.put_errors")
	gBytes   = obs.Default().Gauge("cache.disk.bytes")
	gEntries = obs.Default().Gauge("cache.disk.entries")
)

// Object file layout: an 8-byte magic, the SHA-256 of the payload, the
// payload length, then the payload. The digest makes every read
// self-checking; the explicit length catches truncation before the
// (more expensive) hash comparison runs.
const (
	fileMagic  = "OBFCDS1\n"
	headerSize = len(fileMagic) + sha256.Size + 8

	objectsDir  = "objects"
	journalName = "journal"
	tmpPrefix   = ".tmp-"
)

// journalSlack bounds journal growth: the journal is compacted once it
// holds more than max(journalSlack, 8×entries) appended lines.
const journalSlack = 1024

// Stats is a point-in-time census of one store instance.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Corrupt     int64 `json:"corrupt"`
	GCEvictions int64 `json:"gc_evictions"`
	PutErrors   int64 `json:"put_errors"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	MaxBytes    int64 `json:"max_bytes"`
}

// entry is one resident object; list elements hold *entry.
type entry struct {
	key  cache.Key
	size int64 // on-disk size, header included
}

// Store is a content-addressed on-disk object store with LRU garbage
// collection over a byte budget. All methods are safe for concurrent
// use. It implements cache.Store.
type Store struct {
	dir string
	max int64 // byte budget; <= 0 means unbounded

	mu      sync.Mutex
	journal *os.File
	appends int // journal lines since the last compaction
	bytes   int64
	ll      *list.List // front = most recently used
	items   map[cache.Key]*list.Element
	stats   Stats
	closed  bool
}

// Open opens (creating if needed) a store rooted at dir with the given
// byte budget (<= 0 means unbounded). Leftover temp files from a
// crashed writer are removed, the resident objects are indexed (oldest
// modification first), the atime journal is replayed to restore LRU
// order across restarts, and the journal is compacted. If the budget
// shrank since the last run, GC brings residency back under it.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:   dir,
		max:   maxBytes,
		ll:    list.New(),
		items: map[cache.Key]*list.Element{},
	}
	if err := s.scanObjects(); err != nil {
		return nil, err
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	if err := s.compactJournalLocked(); err != nil {
		return nil, err
	}
	for s.max > 0 && s.bytes > s.max {
		s.evictOldestLocked()
	}
	gBytes.Add(s.bytes)
	gEntries.Add(int64(len(s.items)))
	return s, nil
}

// scanObjects indexes the objects directory: valid object files enter
// the LRU ordered by modification time (a stand-in atime until the
// journal replays), temp files and foreign names are swept away.
func (s *Store) scanObjects() error {
	root := filepath.Join(s.dir, objectsDir)
	ents, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	type found struct {
		key   cache.Key
		size  int64
		mtime time.Time
	}
	var objs []found
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) || !validKey(cache.Key(name)) {
			os.Remove(filepath.Join(root, name))
			continue
		}
		info, err := de.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return fmt.Errorf("diskstore: %w", err)
		}
		objs = append(objs, found{key: cache.Key(name), size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(objs, func(a, b int) bool {
		if !objs[a].mtime.Equal(objs[b].mtime) {
			return objs[a].mtime.Before(objs[b].mtime)
		}
		return objs[a].key < objs[b].key // stable order for equal mtimes
	})
	for _, o := range objs {
		s.items[o.key] = s.ll.PushFront(&entry{key: o.key, size: o.size})
		s.bytes += o.size
	}
	return nil
}

// replayJournal restores LRU recency: each surviving line moves its key
// to the front, so the journal's append order reconstructs access
// order. Lines for evicted or unknown keys are ignored; a torn final
// line (crash mid-append) is ignored too.
func (s *Store) replayJournal() error {
	data, err := os.ReadFile(filepath.Join(s.dir, journalName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if el, ok := s.items[cache.Key(fields[1])]; ok {
			s.ll.MoveToFront(el)
		}
	}
	return nil
}

// compactJournalLocked rewrites the journal to exactly one line per
// resident object (oldest first) and reopens it for appending.
func (s *Store) compactJournalLocked() error {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	path := filepath.Join(s.dir, journalName)
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+journalName+"-*")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	now := time.Now().UnixNano()
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		fmt.Fprintf(tmp, "%d %s\n", now, el.Value.(*entry).key)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	// The rename itself lives in the directory, not the file: without an
	// fsync of the parent a crash right after compaction can surface an
	// empty directory entry — the old journal gone, the new one never
	// durable — losing all LRU recency. Best-effort: recency is a
	// performance hint, so a failed dir sync must not fail the store.
	syncDir(s.dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	s.journal = f
	s.appends = 0
	return nil
}

// touchLocked refreshes a key's recency in memory and in the journal.
func (s *Store) touchLocked(el *list.Element) {
	s.ll.MoveToFront(el)
	if s.journal == nil {
		return
	}
	fmt.Fprintf(s.journal, "%d %s\n", time.Now().UnixNano(), el.Value.(*entry).key)
	s.appends++
	if limit := 8 * len(s.items); s.appends > max(journalSlack, limit) {
		s.compactJournalLocked() // best-effort; next Open rebuilds from mtimes anyway
	}
}

// objectPath returns the object file for a key.
func (s *Store) objectPath(key cache.Key) string {
	return filepath.Join(s.dir, objectsDir, string(key))
}

// validKey reports whether key is a well-formed content address (64
// lowercase hex chars) and therefore a safe file name.
func validKey(key cache.Key) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// errCorrupt marks an object that failed its self-check.
var errCorrupt = errors.New("diskstore: object failed integrity check")

// readObject reads and verifies one object file, returning the payload.
func readObject(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < headerSize || string(b[:len(fileMagic)]) != fileMagic {
		return nil, errCorrupt
	}
	digest := b[len(fileMagic) : len(fileMagic)+sha256.Size]
	length := binary.BigEndian.Uint64(b[len(fileMagic)+sha256.Size : headerSize])
	payload := b[headerSize:]
	if uint64(len(payload)) != length {
		return nil, errCorrupt
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], digest) {
		return nil, errCorrupt
	}
	return payload, nil
}

// Get returns the stored payload for key, refreshing its recency. A
// missing, evicted or malformed-key lookup is a miss; an object that
// fails its self-check is deleted, counted as corrupt, and reported as
// a miss so the caller recomputes.
func (s *Store) Get(ctx context.Context, key cache.Key) (data []byte, ok bool) {
	_, sp := trace.StartSpan(ctx, "stage", "cache.disk.lookup")
	defer func() {
		outcome := "miss"
		if ok {
			outcome = "hit"
		}
		sp.SetArg("outcome", outcome)
		sp.End()
	}()

	s.mu.Lock()
	_, resident := s.items[key]
	s.mu.Unlock()
	if !resident {
		s.miss()
		return nil, false
	}

	// Read outside the lock: object files are immutable once renamed
	// into place, so the only race is concurrent GC unlinking the file,
	// which surfaces as a plain miss below.
	payload, err := readObject(s.objectPath(key))
	if err != nil {
		if errors.Is(err, errCorrupt) {
			s.dropCorrupt(key)
		}
		s.miss()
		return nil, false
	}

	s.mu.Lock()
	// The object may have been GC-evicted between the index check and
	// the read; the bytes in hand are still a valid hit, there is just
	// no recency left to refresh.
	if el, still := s.items[key]; still {
		s.touchLocked(el)
	}
	s.stats.Hits++
	s.mu.Unlock()
	mHits.Inc()
	return payload, true
}

// miss counts one lookup miss.
func (s *Store) miss() {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	mMisses.Inc()
}

// dropCorrupt removes a failed object from disk and the index.
func (s *Store) dropCorrupt(key cache.Key) {
	os.Remove(s.objectPath(key))
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		s.ll.Remove(el)
		delete(s.items, key)
		s.bytes -= e.size
		gBytes.Add(-e.size)
		gEntries.Add(-1)
	}
	s.stats.Corrupt++
	s.mu.Unlock()
	mCorrupt.Inc()
}

// Put stores payload under key: temp file, fsync, rename — readers see
// either the old object or the complete new one, never a torn write.
// A payload larger than the whole budget is not stored (matching the
// memory tier); GC then evicts LRU objects until the budget holds.
// Put errors leave the store consistent and are counted, so a flaky
// disk degrades the cache to a smaller one instead of failing jobs.
func (s *Store) Put(ctx context.Context, key cache.Key, payload []byte) error {
	_ = ctx
	if !validKey(key) {
		return s.putErr(fmt.Errorf("diskstore: malformed key %q", key))
	}
	size := int64(headerSize + len(payload))
	if s.max > 0 && size > s.max {
		return nil // over-budget values are simply not persisted
	}
	if err := s.writeObject(key, payload); err != nil {
		return s.putErr(err)
	}

	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		gBytes.Add(size - e.size)
		e.size = size
		s.touchLocked(el)
	} else {
		el := s.ll.PushFront(&entry{key: key, size: size})
		s.items[key] = el
		s.bytes += size
		gBytes.Add(size)
		gEntries.Add(1)
		s.touchLocked(el)
	}
	for s.max > 0 && s.bytes > s.max {
		s.evictOldestLocked()
	}
	s.mu.Unlock()
	return nil
}

// writeObject performs the atomic temp-write-fsync-rename protocol.
func (s *Store) writeObject(key cache.Key, payload []byte) error {
	root := filepath.Join(s.dir, objectsDir)
	tmp, err := os.CreateTemp(root, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	header := make([]byte, headerSize)
	copy(header, fileMagic)
	sum := sha256.Sum256(payload)
	copy(header[len(fileMagic):], sum[:])
	binary.BigEndian.PutUint64(header[len(fileMagic)+sha256.Size:], uint64(len(payload)))
	if _, err := tmp.Write(header); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		tmp = nil
		return fmt.Errorf("diskstore: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, s.objectPath(key)); err != nil {
		os.Remove(name)
		return fmt.Errorf("diskstore: %w", err)
	}
	syncDir(root)
	return nil
}

// syncDir fsyncs a directory so a preceding rename survives a crash.
// Best-effort: callers treat directory durability as a hint, and some
// filesystems reject fsync on directories.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// putErr counts a failed Put and passes the error through.
func (s *Store) putErr(err error) error {
	s.mu.Lock()
	s.stats.PutErrors++
	s.mu.Unlock()
	mPutErrs.Inc()
	return err
}

// evictOldestLocked garbage-collects the least-recently-used object.
func (s *Store) evictOldestLocked() {
	el := s.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
	os.Remove(s.objectPath(e.key))
	s.stats.GCEvictions++
	mGC.Inc()
	gBytes.Add(-e.size)
	gEntries.Add(-1)
}

// Len returns the number of resident objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Stats returns a snapshot of this instance's counters and residency.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = int64(len(s.items))
	st.Bytes = s.bytes
	st.MaxBytes = s.max
	return st
}

// Close compacts and closes the atime journal. The objects stay on
// disk — that is the point — and a later Open resumes from them.
// Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.compactJournalLocked()
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
		s.journal = nil
	}
	return err
}
