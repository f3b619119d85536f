package service_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"patch"
	"patch/service"
)

// entrySize measures the on-disk footprint of one cache entry for the
// Result shapes used in these tests, so size caps can be phrased in
// entries. All test results use 4-digit Cycles, so every entry
// serializes to the same length.
func entrySize(t *testing.T) int64 {
	t.Helper()
	c, err := service.NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aaaa", &patch.Result{Cycles: 1001})
	size := c.Stats().DiskBytes
	if size <= 0 {
		t.Fatalf("measured entry size %d", size)
	}
	return size
}

// TestDiskCacheEviction: an entry indexed at open carries its file
// mtime as its access time, and its first Get loads it from disk and
// refreshes it — so under the byte cap the idle entry is evicted, not
// the older one just read.
func TestDiskCacheEviction(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	writer, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	writer.Put("aaaa", &patch.Result{Cycles: 1001})
	writer.Put("bbbb", &patch.Result{Cycles: 1002})
	clk := newFakeClock()
	// aaaa is the older file.
	for key, age := range map[string]time.Duration{"aaaa": 2 * time.Hour, "bbbb": time.Hour} {
		at := clk.Now().Add(-age)
		if err := os.Chtimes(filepath.Join(dir, key+".json"), at, at); err != nil {
			t.Fatal(err)
		}
	}

	c, err := service.NewResultCache(dir, service.MaxDiskBytes(2*size), service.CacheClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get("aaaa"); !ok || r.Cycles != 1001 {
		t.Fatalf("get aaaa: %v %v", r, ok)
	}
	clk.Advance(time.Minute)

	// A third entry breaches the two-entry cap: bbbb (oldest access)
	// must be the victim, not aaaa (older file, newer access).
	c.Put("cccc", &patch.Result{Cycles: 1003})
	st := c.Stats()
	if st.DiskEntries != 2 || st.DiskEvictions != 1 || st.DiskEvictedBytes != size {
		t.Fatalf("after eviction: %+v", st)
	}
	if st.DiskBytes > 2*size {
		t.Fatalf("cache over cap: %d > %d", st.DiskBytes, 2*size)
	}
	if _, ok := c.Get("bbbb"); ok {
		t.Error("bbbb survived eviction but aaaa was accessed more recently")
	}
	if r, ok := c.Get("aaaa"); !ok || r.Cycles != 1001 {
		t.Errorf("aaaa was evicted despite recent access: %v %v", r, ok)
	}
	if r, ok := c.Get("cccc"); !ok || r.Cycles != 1003 {
		t.Errorf("get cccc: %v %v", r, ok)
	}
	if st := c.Stats(); st.Bad != 0 {
		t.Errorf("bad entries served: %+v", st)
	}
}

// TestMemoryHitRefreshesLRU configures the cache as sweepd does — a
// byte cap and no other bound — and reads an old key from memory. That
// read protects the key from the cap like a disk load would: the idle
// key is the victim, and the read one's file survives, so it still
// hits after the directory is reopened.
func TestMemoryHitRefreshesLRU(t *testing.T) {
	size := entrySize(t)
	clk := newFakeClock()
	dir := t.TempDir()
	c, err := service.NewResultCache(dir, service.MaxDiskBytes(2*size), service.CacheClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aaaa", &patch.Result{Cycles: 1001})
	clk.Advance(time.Minute)
	c.Put("bbbb", &patch.Result{Cycles: 1002})
	clk.Advance(time.Minute)
	if r, ok := c.Get("aaaa"); !ok || r.Cycles != 1001 {
		t.Fatalf("get aaaa: %v %v", r, ok)
	}
	clk.Advance(time.Minute)

	c.Put("cccc", &patch.Result{Cycles: 1003})
	if st := c.Stats(); st.MemEntries != 2 || st.DiskEntries != 2 || st.DiskEvictions != 1 {
		t.Errorf("after eviction: %+v", st)
	}
	if _, ok := c.Get("bbbb"); ok {
		t.Error("bbbb survived eviction but aaaa was read more recently")
	}
	reopened, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := reopened.Get("aaaa"); !ok || r.Cycles != 1001 {
		t.Errorf("aaaa's file was evicted despite its memory hit: %v %v", r, ok)
	}
}

// TestDiskCacheEvictionSurvivesRestart: the LRU order persists via
// file mtimes, and a cap applies to preexisting entries at open.
func TestDiskCacheEvictionSurvivesRestart(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	c1, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("aaaa", &patch.Result{Cycles: 1001})
	c1.Put("bbbb", &patch.Result{Cycles: 1002})

	// Age aaaa's file well past bbbb's, as a long-idle entry would be.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "aaaa.json"), old, old); err != nil {
		t.Fatal(err)
	}

	// Reopen with room for one entry: the stale aaaa is evicted during
	// construction, the fresh bbbb survives.
	c2, err := service.NewResultCache(dir, service.MaxDiskBytes(size))
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.DiskEntries != 1 || st.DiskEvictions != 1 {
		t.Fatalf("after capped reopen: %+v", st)
	}
	if _, ok := c2.Get("aaaa"); ok {
		t.Error("stale aaaa survived the capped reopen")
	}
	if r, ok := c2.Get("bbbb"); !ok || r.Cycles != 1002 {
		t.Errorf("fresh bbbb evicted at reopen: %v %v", r, ok)
	}
}

// TestEvictionNeverCorruptsServedGets races first-touch disk loads of
// entries indexed at open against continuous eviction. The serving
// refcount pins an entry's file while it is being read, so no Get may
// ever observe a torn or checksum-failing entry (Stats.Bad stays zero)
// or a wrong value. Run with -race this also proves the pinning
// bookkeeping itself is data-race-free.
func TestEvictionNeverCorruptsServedGets(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	const indexed = 100
	key := func(i int) string { return fmt.Sprintf("%08x", i) }
	cycles := func(i int) uint64 { return 1000 + uint64(i) } // 4 digits: equal entry sizes
	writer, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < indexed; i++ {
		writer.Put(key(i), &patch.Result{Cycles: cycles(i)})
	}
	// Reopened, every entry is indexed without its result, so its first
	// Get loads it from disk. Each Put below evicts one entry, and the
	// least recently accessed are the files no Get has loaded yet.
	c, err := service.NewResultCache(dir, service.MaxDiskBytes(indexed*size))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < indexed; n++ {
				i := (n*7 + g*31) % indexed // each reader its own order
				// A miss is allowed: the entry was evicted before its
				// first Get. Serving a stale or torn value is not.
				if r, ok := c.Get(key(i)); ok && r.Cycles != cycles(i) {
					t.Errorf("key %s served wrong value: %d", key(i), r.Cycles)
					return
				}
			}
		}()
	}
	for i := indexed; i < 3*indexed; i++ {
		c.Put(key(i), &patch.Result{Cycles: cycles(i)})
	}
	wg.Wait()

	st := c.Stats()
	if st.Bad != 0 {
		t.Errorf("a Get observed a torn or corrupt entry: %+v", st)
	}
	if st.DiskEvictions == 0 {
		t.Errorf("churn produced no evictions — test exercised nothing: %+v", st)
	}
}
