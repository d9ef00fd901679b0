package pipeline_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"eel/internal/cfg"
	"eel/internal/pipeline"
	"eel/internal/progen"
	"eel/internal/telemetry"
)

// diskCorpusFile is a progen workload big enough to exercise hidden
// routines and dispatch tables.
func diskCorpusFile(t testing.TB, seed int64, routines int) *progen.Program {
	t.Helper()
	c := progen.DefaultConfig(seed)
	c.Routines = routines
	p, err := progen.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDiskStoreWarmRestart is the service's restart story: a fresh
// process (new in-memory cache) pointed at the same store directory
// replays every analysis from disk — zero recomputes — and the
// results are identical.
func TestDiskStoreWarmRestart(t *testing.T) {
	p := diskCorpusFile(t, 7, 30)
	dir := t.TempDir()

	store, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := pipeline.NewCache(0)
	cache.SetBackend(store)
	cold, res1 := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache})
	if res1.Stats.CacheMisses == 0 {
		t.Fatal("cold run recorded no misses")
	}
	if store.Len() == 0 {
		t.Fatal("cold run persisted nothing")
	}

	// "Restart": new cache, new store handle, same directory.
	store2, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != store.Len() {
		t.Fatalf("recovery indexed %d entries, want %d", store2.Len(), store.Len())
	}
	cache2 := pipeline.NewCache(0)
	cache2.SetBackend(store2)
	warm, res2 := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache2})
	if res2.Stats.CacheMisses != 0 {
		t.Errorf("warm restart had %d misses, want 0", res2.Stats.CacheMisses)
	}
	if int(res2.Stats.CacheHits) != res2.Stats.Routines {
		t.Errorf("warm restart: %d hits for %d routines", res2.Stats.CacheHits, res2.Stats.Routines)
	}
	if res2.Stats.CacheDiskHits != res2.Stats.CacheHits {
		t.Errorf("warm restart: %d disk hits of %d hits, want all from disk",
			res2.Stats.CacheDiskHits, res2.Stats.CacheHits)
	}
	diffFingerprints(t, "warm restart", cold, warm)
}

// TestDiskStoreCrashRecovery damages a populated store the ways a
// crash can — a leftover temp file, a truncated entry, an entry full
// of garbage — and asserts recovery and subsequent runs shrug: the
// damaged entries become recomputes, never errors.
func TestDiskStoreCrashRecovery(t *testing.T) {
	p := diskCorpusFile(t, 11, 20)
	dir := t.TempDir()

	store, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := pipeline.NewCache(0)
	cache.SetBackend(store)
	cold, _ := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache})

	names, err := filepath.Glob(filepath.Join(dir, "*.eelb"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want >= 2 entries, got %d (err %v)", len(names), err)
	}
	// Truncate one entry mid-payload, fill another with garbage, and
	// drop a stray temp file and an unrelated file in the directory.
	if err := os.Truncate(names[0], 20); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(names[1], []byte(strings.Repeat("junk", 64)), 0o644); err != nil {
		t.Fatal(err)
	}
	tmpStray := filepath.Join(dir, "tmp-crashed123")
	if err := os.WriteFile(tmpStray, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if _, err := os.Stat(tmpStray); !os.IsNotExist(err) {
		t.Errorf("recovery left temp file behind (err %v)", err)
	}

	cache2 := pipeline.NewCache(0)
	cache2.SetBackend(store2)
	warm, res := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache2})
	diffFingerprints(t, "post-crash", cold, warm)
	if res.Stats.CacheMisses != 2 {
		t.Errorf("post-crash run had %d misses, want 2 (the damaged entries)", res.Stats.CacheMisses)
	}
	c := store2.Counters()
	if c.Corrupt != 2 {
		t.Errorf("store counted %d corrupt entries, want 2", c.Corrupt)
	}
	// The damaged files must be gone (recomputes re-stored fresh ones).
	for _, n := range names[:2] {
		data, err := os.ReadFile(n)
		if err == nil && (len(data) == 20 || strings.HasPrefix(string(data), "junk")) {
			t.Errorf("damaged entry %s still on disk", filepath.Base(n))
		}
	}
}

// TestDiskStoreVersionBumpInvalidation asserts both version fences: a
// future on-disk envelope version is rejected at the frame layer, and
// a payload whose analysis version differs is rejected at the codec
// layer.  Either way the entry is a miss, never a wrong answer.
func TestDiskStoreVersionBumpInvalidation(t *testing.T) {
	p := diskCorpusFile(t, 13, 12)
	dir := t.TempDir()

	store, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := pipeline.NewCache(0)
	cache.SetBackend(store)
	analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache})

	names, err := filepath.Glob(filepath.Join(dir, "*.eelb"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want >= 2 entries, got %d (err %v)", len(names), err)
	}

	// Bump the envelope version of one entry (header bytes 4:8).
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[7]++ // big-endian low byte of the version field
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Bump the analysis version inside another entry's payload (the
	// payload's second uvarint; both versions are single-byte today)
	// and re-checksum so only the codec-layer fence can catch it.
	data2, err := os.ReadFile(names[1])
	if err != nil {
		t.Fatal(err)
	}
	payload := data2[44:]
	payload[1]++ // analysisVersion uvarint
	refreshChecksum(data2)
	if err := os.WriteFile(names[1], data2, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := pipeline.NewCache(0)
	cache2.SetBackend(store2)
	_, res := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache2})
	if res.Stats.CacheMisses != 2 {
		t.Errorf("versioned-out entries produced %d misses, want 2", res.Stats.CacheMisses)
	}
	if res.Stats.CacheDiskHits == 0 {
		t.Errorf("undamaged entries should still hit from disk (disk hits %d)", res.Stats.CacheDiskHits)
	}
}

// refreshChecksum recomputes a framed entry's payload checksum
// (header bytes 32:40, FNV-64a over the payload) after a test mutates
// the payload, so only deeper validation layers can reject it.
func refreshChecksum(data []byte) {
	h := fnv.New64a()
	h.Write(data[44:])
	binary.BigEndian.PutUint64(data[32:], h.Sum64())
}

// TestDiskStoreConcurrentReadersDuringEviction hammers a tiny store
// with concurrent loaders and storers; run under -race this checks
// the store's locking, and functionally that readers racing evictions
// see clean misses, and the bounds hold afterwards.
func TestDiskStoreConcurrentReadersDuringEviction(t *testing.T) {
	store, err := pipeline.OpenDiskStore(t.TempDir(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]pipeline.Key, 32)
	for i := range keys {
		keys[i] = pipeline.Key{Hash: uint64(i) * 0x9e3779b97f4a7c15, Start: uint32(i) * 64, Words: 16}
	}
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", i*7)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, k := range keys {
					if (i+round+w)%2 == 0 {
						store.Store(k, payload(i))
					} else if data, ok := store.Load(k); ok {
						if want := string(payload(i)); string(data) != want {
							t.Errorf("key %d: loaded %q, want %q", i, data, want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := store.Len(); n > 4 {
		t.Errorf("store holds %d entries, bound is 4", n)
	}
	names, _ := filepath.Glob(filepath.Join(store.Dir(), "*.eelb"))
	if len(names) > 4 {
		t.Errorf("%d entry files on disk, bound is 4", len(names))
	}
	c := store.Counters()
	if c.Evictions == 0 {
		t.Error("no evictions despite 32 keys in a 4-entry store")
	}
	if c.Corrupt != 0 {
		t.Errorf("%d corrupt entries in a healthy store", c.Corrupt)
	}
}

// TestPipelineIncrementalReanalysis is the incremental-re-analysis
// invariant end to end: resubmitting an image with exactly one
// routine's code changed re-analyzes exactly that routine — every
// other routine replays from the cache.
func TestPipelineIncrementalReanalysis(t *testing.T) {
	p := diskCorpusFile(t, 7, 30)
	cache := pipeline.NewCache(0)
	_, res1 := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache})
	if res1.Stats.Errors != 0 {
		t.Fatalf("baseline run had %d errors", res1.Stats.Errors)
	}

	// Collect every out-of-routine word any analysis depends on; the
	// patch must avoid them or it would legitimately invalidate more
	// than one routine.
	e := load(t, p.File)
	res, err := pipeline.AnalyzeAll(e, pipeline.Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	external := map[uint32]bool{}
	for _, a := range res.Analyses {
		if a.Graph == nil {
			continue
		}
		for _, addr := range a.Graph.ExternalReads {
			external[addr] = true
		}
	}

	// Find an immediate-form ALU instruction (SPARC op=2, i=1, op3 in
	// the arithmetic range) no other routine reads, and flip the low
	// bit of its simm13 — a one-word, control-flow-preserving change
	// to exactly one routine.
	text := e.File.Text()
	var patchAddr uint32
	var patched string
	for _, a := range res.Analyses {
		if a.Graph == nil || a.Routine.Hidden {
			continue
		}
		for _, b := range a.Graph.Blocks {
			for _, in := range b.Insts {
				w := in.MI.Word()
				if w>>30 == 2 && w&(1<<13) != 0 && (w>>19)&0x3f < 0x10 && !external[in.Addr] {
					patchAddr, patched = in.Addr, a.Routine.Name
					break
				}
			}
			if patched != "" {
				break
			}
		}
		if patched != "" {
			break
		}
	}
	if patched == "" {
		t.Fatal("no patchable ALU-immediate instruction found")
	}
	off := patchAddr - text.Addr
	text.Data[off+3] ^= 1 // low bit of simm13 (big-endian word)

	_, res2 := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache})
	if res2.Stats.CacheMisses != 1 {
		t.Errorf("patched %s at %#x: %d misses, want exactly 1", patched, patchAddr, res2.Stats.CacheMisses)
	}
	if int(res2.Stats.CacheHits) != res2.Stats.Routines-1 {
		t.Errorf("patched run: %d hits for %d routines, want %d",
			res2.Stats.CacheHits, res2.Stats.Routines, res2.Stats.Routines-1)
	}
	if res2.Stats.Errors != 0 {
		t.Errorf("patched run had %d errors", res2.Stats.Errors)
	}
}

// TestPerRunCacheEvictionAttribution asserts evictions are charged to
// the run whose stores caused them: each run's Stats (and its folded
// telemetry registry) sees exactly its own evictions, and the runs'
// numbers sum to the cache's lifetime counter.
func TestPerRunCacheEvictionAttribution(t *testing.T) {
	p := diskCorpusFile(t, 7, 30)
	cache := pipeline.NewCache(8) // far smaller than the routine count

	reg1 := telemetry.New()
	_, res1 := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache, Telemetry: reg1})
	if res1.Stats.CacheEvictions == 0 {
		t.Fatal("first run evicted nothing despite an 8-entry cache")
	}

	reg2 := telemetry.New()
	_, res2 := analyzeParallel(t, p.File, pipeline.Options{Workers: 4, Cache: cache, Telemetry: reg2})
	if res2.Stats.CacheEvictions == 0 {
		t.Fatal("second run evicted nothing despite an 8-entry cache")
	}

	_, _, lifetime := cache.Counters()
	if got := res1.Stats.CacheEvictions + res2.Stats.CacheEvictions; got != lifetime {
		t.Errorf("per-run evictions %d + %d != lifetime %d",
			res1.Stats.CacheEvictions, res2.Stats.CacheEvictions, lifetime)
	}
	for i, pair := range []struct {
		reg  *telemetry.Registry
		want uint64
	}{{reg1, res1.Stats.CacheEvictions}, {reg2, res2.Stats.CacheEvictions}} {
		snap := pair.reg.Snapshot()
		if got := snap.Counters["pipeline.cache.evictions"]; got != pair.want {
			t.Errorf("run %d registry shows %d evictions, stats say %d", i+1, got, pair.want)
		}
	}
}

// TestNormalBlocksInAddressOrder pins the order layout relies on: a
// graph lists its normal blocks by ascending address, both as the
// builder makes it and as the persistent cache's codec decodes it.
func TestNormalBlocksInAddressOrder(t *testing.T) {
	p := diskCorpusFile(t, 5, 30)
	dir := t.TempDir()
	for _, fromDisk := range []bool{false, true} {
		store, err := pipeline.OpenDiskStore(dir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		cache := pipeline.NewCache(0)
		cache.SetBackend(store)
		res, err := pipeline.AnalyzeAll(load(t, p.File), pipeline.Options{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Analyses {
			if a.FromDisk != fromDisk || a.Graph == nil {
				t.Fatalf("%s: from disk %v, graph %v; want from disk %v", a.Routine.Name, a.FromDisk, a.Graph != nil, fromDisk)
			}
			prev := uint32(0)
			for _, b := range a.Graph.Blocks {
				if b.Kind != cfg.KindNormal {
					continue
				}
				if b.Start() <= prev {
					t.Errorf("%s (from disk %v): normal block at %#x follows %#x", a.Routine.Name, fromDisk, b.Start(), prev)
				}
				prev = b.Start()
			}
		}
	}
}
