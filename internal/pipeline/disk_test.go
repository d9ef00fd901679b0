package pipeline_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
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

// segRecord is one framed record inside a segment file.
type segRecord struct{ off, n int }

// segmentRecords walks a segment's envelopes — magic, version, key
// echo, length, FNV-64a checksum, then the payload — and returns each
// record it can frame, stopping where no record boundary is left.
func segmentRecords(data []byte) []segRecord {
	var recs []segRecord
	for off := 0; len(data)-off >= 44 && binary.BigEndian.Uint32(data[off:]) == 0x45454c42; {
		size := binary.BigEndian.Uint64(data[off+24:])
		if size > uint64(len(data)-off-44) {
			break
		}
		n := 44 + int(size)
		recs = append(recs, segRecord{off, n})
		off += n
	}
	return recs
}

// recordKey reads a framed record's key echo.
func recordKey(rec []byte) pipeline.Key {
	return pipeline.Key{
		Hash:  binary.BigEndian.Uint64(rec[8:]),
		Start: binary.BigEndian.Uint32(rec[16:]),
		Words: binary.BigEndian.Uint32(rec[20:]),
	}
}

// wholeRoutineRecords keeps the records of routines that analysis
// did not split.  A split routine has a second record under its
// shrunken extent, which only a re-run on the same, already split
// executable looks up, so damaging either of its records would not
// show as exactly one miss on a fresh load.
func wholeRoutineRecords(data []byte, recs []segRecord) []segRecord {
	starts := map[uint32]int{}
	for _, r := range recs {
		starts[recordKey(data[r.off:]).Start]++
	}
	var out []segRecord
	for _, r := range recs {
		if starts[recordKey(data[r.off:]).Start] == 1 {
			out = append(out, r)
		}
	}
	return out
}

// segmentFiles lists a store directory's segment files, oldest first.
func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.eelb"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// onlySegment returns the contents of the store's one segment file.
func onlySegment(t testing.TB, dir string) (string, []byte, []segRecord) {
	t.Helper()
	names := segmentFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("want 1 segment, got %d", len(names))
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	recs := segmentRecords(data)
	if len(recs) < 2 {
		t.Fatalf("want >= 2 records, got %d", len(recs))
	}
	return names[0], data, recs
}

// TestDiskStoreCrashRecovery damages a populated store the ways a
// crash or a bad disk can — a leftover temp file, a record full of
// garbage, a flipped bit — and asserts recovery and subsequent runs
// shrug: the damaged records become recomputes, never errors.
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

	seg, data, recs := onlySegment(t, dir)
	damaged := wholeRoutineRecords(data, recs)[:2]
	// Fill one record's payload with garbage, flip one payload bit of
	// another, and drop a stray temp file and an unrelated file in the
	// directory.  Both headers still frame their records, so recovery
	// can step over them.
	for i := damaged[0].off + 44; i < damaged[0].off+damaged[0].n; i++ {
		data[i] = "junk"[i%4]
	}
	data[damaged[1].off+44+(damaged[1].n-44)/2] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
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
		t.Errorf("post-crash run had %d misses, want 2 (the damaged records)", res.Stats.CacheMisses)
	}
	c := store2.Counters()
	if c.Corrupt != 2 {
		t.Errorf("store counted %d corrupt records, want 2", c.Corrupt)
	}
	// The damaged records must be replaced: the recomputes re-stored
	// fresh ones under the same keys.
	for _, r := range damaged {
		got, ok := store2.Load(recordKey(data[r.off:]))
		if served := string(got) == string(data[r.off+44:r.off+r.n]); !ok || served {
			t.Errorf("damaged record at %d: re-stored %v, damaged bytes served %v", r.off, ok, served)
		}
	}
}

// TestDiskStoreTornTail truncates a segment mid-way through its last
// record, as a crash can leave it when the rename reached the disk
// before all of the data did (writes are not fsynced): only that
// record is lost, every earlier one still loads.
func TestDiskStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	store, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var batch []pipeline.Record
	for i := 0; i < 5; i++ {
		k := pipeline.Key{Hash: uint64(i+1) * 0x9e3779b97f4a7c15, Start: uint32(i) * 64, Words: 16}
		batch = append(batch, pipeline.Record{Key: k, Data: []byte(strings.Repeat(fmt.Sprint(i), 50+i))})
	}
	if _, err := store.Persist(batch); err != nil {
		t.Fatal(err)
	}
	seg, _, recs := onlySegment(t, dir)
	last := recs[len(recs)-1]
	if err := os.Truncate(seg, int64(last.off+44+(last.n-44)/2)); err != nil {
		t.Fatal(err)
	}

	store2, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for _, r := range batch {
		data, ok := store2.Load(r.Key)
		if !ok {
			misses++
			continue
		}
		if string(data) != string(r.Data) {
			t.Errorf("key %+v: loaded %q, want %q", r.Key, data, r.Data)
		}
	}
	if misses != 1 {
		t.Errorf("torn tail cost %d records, want 1", misses)
	}
	if _, ok := store2.Load(batch[len(batch)-1].Key); ok {
		t.Error("the torn record was served")
	}
}

// TestDiskStoreVersionBumpInvalidation asserts both version fences: a
// future on-disk envelope version is rejected at the frame layer, and
// a payload whose analysis version differs is rejected at the codec
// layer.  Either way the record is a miss, never a wrong answer.
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

	seg, data, recs := onlySegment(t, dir)
	recs = wholeRoutineRecords(data, recs)
	// Bump the envelope version of one record (header bytes 4:8).
	data[recs[0].off+7]++ // big-endian low byte of the version field

	// Bump the analysis version inside another record's payload (the
	// payload's second uvarint; both versions are single-byte today)
	// and re-checksum so only the codec-layer fence can catch it.
	rec := data[recs[1].off : recs[1].off+recs[1].n]
	rec[44+1]++ // analysisVersion uvarint
	refreshChecksum(rec)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
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
		t.Errorf("versioned-out records produced %d misses, want 2", res.Stats.CacheMisses)
	}
	if res.Stats.CacheDiskHits == 0 {
		t.Errorf("undamaged records should still hit from disk (disk hits %d)", res.Stats.CacheDiskHits)
	}
}

// refreshChecksum recomputes a framed record's payload checksum
// (header bytes 32:40, FNV-64a over the payload) after a test mutates
// the payload, so only deeper validation layers can reject it.
func refreshChecksum(data []byte) {
	h := fnv.New64a()
	h.Write(data[44:])
	binary.BigEndian.PutUint64(data[32:], h.Sum64())
}

// TestDiskStoreOneSegmentPerRun: a run's misses reach the disk tier
// as one batch, written as exactly one new segment file holding one
// record per miss, plus one per split routine under its shrunken
// extent.
func TestDiskStoreOneSegmentPerRun(t *testing.T) {
	dir := t.TempDir()
	store, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := pipeline.NewCache(0)
	cache.SetBackend(store)
	var stored uint64
	for i, seed := range []int64{3, 5} {
		_, res := analyzeParallel(t, diskCorpusFile(t, seed, 25).File, pipeline.Options{Workers: 4, Cache: cache})
		segs := segmentFiles(t, dir)
		if len(segs) != i+1 {
			t.Fatalf("after run %d: %d segment files, want %d", i+1, len(segs), i+1)
		}
		if res.Stats.CacheMisses == 0 || res.Stats.CacheHits != 0 {
			t.Fatalf("run %d: %d misses, %d hits; want a cold run", i+1, res.Stats.CacheMisses, res.Stats.CacheHits)
		}
		stores := store.Counters().Stores - stored
		stored += stores
		if want := res.Stats.CacheMisses + uint64(res.Stats.Hidden); stores != want {
			t.Errorf("run %d: %d stores for %d misses and %d splits", i+1, stores, res.Stats.CacheMisses, res.Stats.Hidden)
		}
		data, err := os.ReadFile(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		if n := len(segmentRecords(data)); uint64(n) != stores {
			t.Errorf("run %d: new segment holds %d records, want %d", i+1, n, stores)
		}
	}
}

// TestDiskStoreRecoveryHonoursBounds reopens a store under smaller
// bounds than it was filled with: recovery must bring the files on
// disk, not just the index, within the new bounds, and later stores
// must keep them there.
func TestDiskStoreRecoveryHonoursBounds(t *testing.T) {
	dir := t.TempDir()
	key := func(i int) pipeline.Key {
		return pipeline.Key{Hash: uint64(i+1) * 0x9e3779b97f4a7c15, Start: uint32(i) * 64, Words: 16}
	}
	payload := []byte(strings.Repeat("p", 100)) // 144 bytes framed
	onDisk := func() (files int, size int64) {
		for _, name := range segmentFiles(t, dir) {
			info, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			files++
			size += info.Size()
		}
		return files, size
	}
	check := func(label string, s *pipeline.DiskStore, maxEntries int, maxBytes int64) {
		t.Helper()
		files, size := onDisk()
		if files > maxEntries || s.Len() > maxEntries {
			t.Errorf("%s: %d files, %d entries; bound is %d", label, files, s.Len(), maxEntries)
		}
		if size > maxBytes || s.Bytes() != size {
			t.Errorf("%s: %d bytes on disk, store counts %d; bound is %d", label, size, s.Bytes(), maxBytes)
		}
	}

	store, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		store.Store(key(i), payload)
	}
	store, err = pipeline.OpenDiskStore(dir, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened with 5 entries", store, 5, pipeline.DefaultDiskBytes)
	for i := 20; i < 25; i++ {
		store.Store(key(i), payload)
	}
	check("5 more stores", store, 5, pipeline.DefaultDiskBytes)

	store, err = pipeline.OpenDiskStore(dir, 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened with 600 bytes", store, 4, 600)
	if data, ok := store.Load(key(24)); !ok || string(data) != string(payload) {
		t.Errorf("newest entry lost to the smaller bounds (ok %v)", ok)
	}
}

// TestDiskStoreCopyForward: a run that loads a key from disk writes it
// again in its own segment, so the key survives the eviction of the
// segment it was first written in — segment order is recency order.
func TestDiskStoreCopyForward(t *testing.T) {
	a, b, c := diskCorpusFile(t, 3, 20), diskCorpusFile(t, 5, 20), diskCorpusFile(t, 9, 20)
	run := func(p *progen.Program, store *pipeline.DiskStore) pipeline.Stats {
		t.Helper()
		cache := pipeline.NewCache(0) // fresh, so every hit comes from disk
		cache.SetBackend(store)
		_, res := analyzeParallel(t, p.File, pipeline.Options{Workers: 2, Cache: cache})
		return res.Stats
	}
	records := func(p *progen.Program) int {
		t.Helper()
		store, err := pipeline.OpenDiskStore(t.TempDir(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		run(p, store)
		return store.Len()
	}
	na, nb, nc := records(a), records(b), records(c)

	// Room for a and either of b or c, but not all three.
	store, err := pipeline.OpenDiskStore(t.TempDir(), na+max(nb, nc), 0)
	if err != nil {
		t.Fatal(err)
	}
	run(a, store)
	run(b, store)
	if st := run(a, store); st.CacheMisses != 0 {
		t.Fatalf("a's second run had %d misses, want 0", st.CacheMisses)
	}
	run(c, store) // evicts the oldest segments
	if store.Counters().Evictions == 0 {
		t.Fatal("c's run evicted nothing")
	}
	if st := run(a, store); st.CacheMisses != 0 || st.CacheDiskHits != uint64(st.Routines) {
		t.Errorf("a after eviction: %d misses, %d disk hits for %d routines; want all from disk",
			st.CacheMisses, st.CacheDiskHits, st.Routines)
	}
}

// TestDiskStoreSpans: a run with a disk tier records one
// pipeline.persist span, tagged with its trace ID, on its tracer; a
// run with nothing to write records none; opening a store records
// disk.recover on the process tracer.
func TestDiskStoreSpans(t *testing.T) {
	p := diskCorpusFile(t, 7, 12)
	dir := t.TempDir()
	store, err := pipeline.OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := pipeline.NewCache(0)
	cache.SetBackend(store)
	tr := telemetry.NewTracer()
	opts := pipeline.Options{Workers: 2, Cache: cache, Tracer: tr, TraceTag: "req-1"}
	analyzeParallel(t, p.File, opts)
	analyzeParallel(t, p.File, opts) // all memory hits: nothing to write
	spans := func(tr *telemetry.Tracer, name string) []telemetry.Event {
		var out []telemetry.Event
		for _, ev := range tr.Events() {
			if ev.Name == name {
				out = append(out, ev)
			}
		}
		return out
	}
	args := func(ev telemetry.Event) string {
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%v ", k, ev.Args[k])
		}
		return b.String()
	}
	persist := spans(tr, "pipeline.persist")
	if len(persist) != 1 {
		t.Fatalf("%d pipeline.persist spans, want 1", len(persist))
	}
	want := fmt.Sprintf("bytes=%d dropped_segments=0 records=%d segment=0 trace=req-1 ", store.Bytes(), store.Counters().Stores)
	if got := args(persist[0]); got != want {
		t.Errorf("pipeline.persist args %q, want %q", got, want)
	}

	tr2 := telemetry.NewTracer()
	telemetry.SetTracer(tr2)
	defer telemetry.SetTracer(nil)
	if _, err := pipeline.OpenDiskStore(dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	recovered := spans(tr2, "disk.recover")
	if len(recovered) != 1 {
		t.Fatalf("%d disk.recover spans, want 1", len(recovered))
	}
	want = fmt.Sprintf("corrupt=0 records=%d segments=1 ", store.Counters().Stores)
	if got := args(recovered[0]); got != want {
		t.Errorf("disk.recover args %q, want %q", got, want)
	}
}

// TestDiskStoreConcurrentRuns runs analyses of several programs at
// once over one small store, each with a fresh memory tier, so batch
// writes, copy-forward, loads and segment evictions interleave: every
// run still matches its cold result, and the bounds hold afterwards.
func TestDiskStoreConcurrentRuns(t *testing.T) {
	var progs []*progen.Program
	var want [][]string
	for _, seed := range []int64{3, 5, 9} {
		p := diskCorpusFile(t, seed, 15)
		progs = append(progs, p)
		fp, _ := analyzeParallel(t, p.File, pipeline.Options{Workers: 2})
		want = append(want, fp)
	}
	dir := t.TempDir()
	store, err := pipeline.OpenDiskStore(dir, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (w + round) % len(progs)
				cache := pipeline.NewCache(0)
				cache.SetBackend(store)
				res, err := pipeline.AnalyzeAll(load(t, progs[i].File), pipeline.Options{Workers: 2, Cache: cache})
				if err != nil {
					t.Error(err)
					return
				}
				for j, a := range res.Analyses {
					if got := fingerprint(a.Routine, a.Graph, a.Liveness, a.IDom, a.Loops, a.Err); got != want[i][j] {
						t.Errorf("program %d routine %d diverged (from disk %v)", i, j, a.FromDisk)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := store.Len(); n > 40 {
		t.Errorf("store holds %d entries, bound is 40", n)
	}
	if n := len(segmentFiles(t, dir)); n > 40 {
		t.Errorf("%d segment files, bound is 40 entries", n)
	}
	if c := store.Counters(); c.Corrupt != 0 || c.LoadHits == 0 || c.Evictions == 0 {
		t.Errorf("counters %+v: want disk hits and evictions, no corruption", c)
	}
}

// FuzzDiskStoreRecover writes arbitrary bytes as a segment, next to a
// stray temp file: opening the store must neither panic nor fail,
// must sweep the temp file, and must serve exactly the records whose
// envelopes validate — the last such record per key — and nothing
// else.
func FuzzDiskStoreRecover(f *testing.F) {
	seedDir := f.TempDir()
	store, err := pipeline.OpenDiskStore(seedDir, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	k1 := pipeline.Key{Hash: 1, Start: 0x100, Words: 4}
	k2 := pipeline.Key{Hash: 2, Start: 0x200, Words: 8}
	if _, err := store.Persist([]pipeline.Record{
		{Key: k1, Data: []byte("first")}, {Key: k2, Data: []byte("second")}, {Key: k1, Data: []byte("first again")},
	}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(segmentFiles(f, seedDir)[0])
	if err != nil {
		f.Fatal(err)
	}
	version := binary.BigEndian.Uint32(seed[4:])
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	flipped := append([]byte(nil), seed...)
	flipped[44+2] ^= 1
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000001.eelb"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		stray := filepath.Join(dir, "tmp-stray")
		if err := os.WriteFile(stray, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := pipeline.OpenDiskStore(dir, 0, 0)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if _, err := os.Stat(stray); !os.IsNotExist(err) {
			t.Errorf("temp file not swept (err %v)", err)
		}
		valid := map[pipeline.Key][]byte{}
		var keys []pipeline.Key
		for _, r := range segmentRecords(data) {
			rec := data[r.off : r.off+r.n]
			k := recordKey(rec)
			keys = append(keys, k)
			h := fnv.New64a()
			h.Write(rec[44:])
			if binary.BigEndian.Uint32(rec[4:]) == version && h.Sum64() == binary.BigEndian.Uint64(rec[32:]) {
				valid[k] = rec[44:]
			}
		}
		if s.Len() != len(valid) {
			t.Errorf("indexed %d keys, %d have a valid record", s.Len(), len(valid))
		}
		for _, k := range keys {
			got, ok := s.Load(k)
			want, isValid := valid[k]
			if ok != isValid || string(got) != string(want) {
				t.Errorf("key %+v: loaded %q (ok %v), want %q (valid %v)", k, got, ok, want, isValid)
			}
		}
	})
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
