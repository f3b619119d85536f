package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"patch"
)

// ResultCache is the content-addressed result store: replica results
// keyed by Config.Fingerprint(). Because a fingerprint's results are
// deterministic, a hit is exact — the cached Result is the result, not
// an approximation — so overlapping cells across concurrent jobs skip
// the simulator entirely.
//
// One index maps each key to its result, the size of its file and its
// last access. With a directory, every Put writes through to one
// checksummed JSON file per key, so the cache survives server
// restarts: entries found at open are indexed without their results,
// and the first Get of each loads and verifies its file. A truncated
// or corrupted file fails its checksum and is deleted and recomputed,
// never served.
//
// MaxDiskBytes is the one bound. Once the resident file bytes exceed
// it, the least recently accessed entries are evicted — a memory hit
// and a disk load refresh an entry alike — and an entry's memory copy
// leaves together with its file. An entry a concurrent Get is reading
// off disk is never the victim (a serving refcount pins it). A disk
// load also refreshes the file mtime, and after a restart the mtimes
// give the eviction order.
//
// Cached *patch.Result values are shared between callers and must be
// treated as immutable.
type ResultCache struct {
	dir     string // "" = memory-only
	maxDisk int64  // <=0 = unbounded
	now     func() time.Time

	mu        sync.Mutex
	entries   map[string]*cacheEntry
	serving   map[string]int // disk loads in flight, by key
	diskBytes int64

	hits, misses, bad         int64
	diskEvict, diskEvictBytes int64
}

// cacheEntry is one key's slot in the index. r is nil until the first
// Get of an entry indexed at open loads it; size is 0 when no file
// backs the entry (a memory-only cache, or a failed write).
type cacheEntry struct {
	r      *patch.Result
	size   int64
	access time.Time
}

// CacheStats counts cache outcomes since construction, plus the
// current resident state: MemEntries entries hold their result in
// memory, DiskEntries have a file. Bad counts on-disk entries rejected
// by their checksum (each was deleted and the replica recomputed);
// DiskEvictions counts size-cap evictions (checksum rejections are
// counted only under Bad).
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Bad    int64 `json:"bad"`

	MemEntries int `json:"mem_entries"`

	DiskEntries      int   `json:"disk_entries"`
	DiskBytes        int64 `json:"disk_bytes"`
	DiskEvictions    int64 `json:"disk_evictions"`
	DiskEvictedBytes int64 `json:"disk_evicted_bytes"`
}

// CacheOption tunes a ResultCache at construction.
type CacheOption func(*ResultCache)

// MaxDiskBytes caps the cache at n resident file bytes; once exceeded,
// the least recently accessed entries are evicted. n <= 0 leaves the
// cache unbounded.
func MaxDiskBytes(n int64) CacheOption {
	return func(c *ResultCache) { c.maxDisk = n }
}

// CacheClock injects the clock used for access stamps — tests drive
// eviction order without sleeping. nil keeps time.Now.
func CacheClock(now func() time.Time) CacheOption {
	return func(c *ResultCache) {
		if now != nil {
			c.now = now
		}
	}
}

// NewResultCache opens a cache. dir "" keeps results in memory only;
// otherwise dir is created and holds one file per fingerprint, and any
// entries already present are indexed (sizes and access times from the
// filesystem) so the size cap and eviction order survive restarts.
func NewResultCache(dir string, opts ...CacheOption) (*ResultCache, error) {
	c := &ResultCache{
		dir:     dir,
		now:     time.Now,
		entries: make(map[string]*cacheEntry),
		serving: make(map[string]int),
	}
	for _, opt := range opts {
		opt(c)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: result cache: %w", err)
		}
		if err := c.scanDisk(); err != nil {
			return nil, fmt.Errorf("service: result cache: %w", err)
		}
		c.evictLocked() // a lowered cap applies to preexisting entries
	}
	return c, nil
}

// scanDisk indexes the entries already on disk. Only called during
// construction, before the cache is shared.
func (c *ResultCache) scanDisk() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		key, isEntry := strings.CutSuffix(name, ".json")
		if e.IsDir() || !isEntry || key == "" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		c.entries[key] = &cacheEntry{size: info.Size(), access: info.ModTime()}
		c.diskBytes += info.Size()
	}
	return nil
}

// Stats returns a snapshot of the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits: c.hits, Misses: c.misses, Bad: c.bad,
		DiskBytes: c.diskBytes, DiskEvictions: c.diskEvict, DiskEvictedBytes: c.diskEvictBytes,
	}
	for _, e := range c.entries {
		if e.r != nil {
			st.MemEntries++
		}
		if e.size > 0 {
			st.DiskEntries++
		}
	}
	return st
}

// Get returns the cached result for key, loading it from disk on the
// first Get of an entry indexed at open. A file failing its checksum
// counts as a miss (and is removed so it cannot fail again). While the
// disk read is in flight the key is pinned against eviction, so a
// concurrent Put-triggered eviction can never unlink a file mid-serve.
func (c *ResultCache) Get(key string) (*patch.Result, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	if e.r != nil {
		e.access = c.now()
		c.hits++
		r := e.r
		c.mu.Unlock()
		return r, true
	}
	c.serving[key]++
	c.mu.Unlock()

	r, ok := c.load(key)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serving[key]--; c.serving[key] == 0 {
		delete(c.serving, key)
	}
	if !ok {
		// The file vanished or failed its checksum (load already
		// removed it); drop the entry unless a concurrent Get already
		// did.
		if c.entries[key] == e {
			c.diskBytes -= e.size
			delete(c.entries, key)
		}
		c.misses++
		return nil, false
	}
	if e.r == nil {
		e.r = r
	}
	e.access = c.now()
	c.hits++
	return e.r, true
}

// Put stores a result under key, writing through to disk when the
// cache has a directory. Write errors degrade to memory-only silently:
// the cache is an accelerator, never a correctness dependency.
func (c *ResultCache) Put(key string, r *patch.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && e.r != nil {
		return
	}
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	e.r, e.access = r, c.now()
	if c.dir == "" {
		return
	}
	if size, ok := c.store(key, r); ok {
		c.diskBytes += size - e.size
		e.size = size
	}
	c.evictLocked()
}

// evictLocked enforces the size cap: while over it, drop the least
// recently accessed entry — file and memory copy together — whose file
// no concurrent Get is reading (serving refcount zero). Called with mu
// held.
func (c *ResultCache) evictLocked() {
	for c.maxDisk > 0 && c.diskBytes > c.maxDisk {
		var victim string
		var ve *cacheEntry
		for key, e := range c.entries {
			if c.serving[key] > 0 {
				continue
			}
			if ve == nil || e.access.Before(ve.access) {
				victim, ve = key, e
			}
		}
		if ve == nil {
			return // everything over the cap is being served right now
		}
		if path, ok := c.entryPath(victim); ok {
			_ = os.Remove(path)
		}
		c.diskBytes -= ve.size
		delete(c.entries, victim)
		c.diskEvict++
		c.diskEvictBytes += ve.size
	}
}

// entryPath maps a fingerprint to its file. Fingerprints are hex, so
// they are safe as file names; reject anything else defensively.
func (c *ResultCache) entryPath(key string) (string, bool) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", false
	}
	return filepath.Join(c.dir, key+".json"), true
}

// Checksummed-file format, shared by the cache's disk layer and the
// job store: one header line "sha256:<hex of payload>\n" followed by
// the payload. The checksum covers every payload byte, so truncation,
// bit rot, or a hand-edited file is detected on load.
const checksumPrefix = "sha256:"

// checksumLine returns the header line (without newline) for payload.
func checksumLine(payload []byte) string {
	return string(appendChecksum(make([]byte, 0, len(checksumPrefix)+2*sha256.Size), payload))
}

// appendChecksum appends checksumLine(payload) to b.
func appendChecksum(b, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b = append(b, checksumPrefix...)
	return hex.AppendEncode(b, sum[:])
}

// readChecksummed reads a checksummed file and returns its verified
// payload. ok is false when the file is absent; bad is true when it
// was present but failed verification.
func readChecksummed(path string) (payload []byte, ok, bad bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	header, body, found := strings.Cut(string(data), "\n")
	if !found || header != checksumLine([]byte(body)) {
		return nil, false, true
	}
	return []byte(body), true, false
}

// writeChecksummed atomically writes a checksummed file: temp file in
// the same directory + rename, so a crash mid-write leaves no half
// entry under the final name.
func writeChecksummed(path string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := fmt.Fprintf(tmp, "%s\n%s", checksumLine(payload), payload)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// load reads and verifies one disk entry, with no cache lock held (the
// key's serving refcount pins it against eviction instead). On a
// checksum failure the file is removed so it is recomputed exactly
// once. A successful load refreshes the file mtime, so the eviction
// order survives restarts.
func (c *ResultCache) load(key string) (*patch.Result, bool) {
	path, ok := c.entryPath(key)
	if !ok {
		return nil, false
	}
	payload, ok, bad := readChecksummed(path)
	if bad {
		c.evictBad(path)
		return nil, false
	}
	if !ok {
		return nil, false // absent (or unreadable): a plain miss
	}
	var r patch.Result
	if err := json.Unmarshal(payload, &r); err != nil {
		// The checksum matched, so this is a format change or a write
		// bug, not corruption — still recompute rather than serve.
		c.evictBad(path)
		return nil, false
	}
	now := c.now()
	_ = os.Chtimes(path, now, now)
	return &r, true
}

// evictBad removes a failed entry so it is recomputed exactly once.
func (c *ResultCache) evictBad(path string) {
	c.mu.Lock()
	c.bad++
	c.mu.Unlock()
	_ = os.Remove(path)
}

// store writes one disk entry atomically and reports its size. Called
// with mu held.
func (c *ResultCache) store(key string, r *patch.Result) (int64, bool) {
	path, ok := c.entryPath(key)
	if !ok {
		return 0, false
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return 0, false
	}
	if err := writeChecksummed(path, payload); err != nil {
		return 0, false
	}
	// header + "\n" + payload
	return int64(len(checksumLine(payload))) + 1 + int64(len(payload)), true
}
