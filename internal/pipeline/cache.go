package pipeline

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/dataflow"
)

// analysisVersion is baked into every cache key; bump it whenever the
// CFG builder, liveness, dominator, loop, or slicing code changes
// meaning, so stale entries from an older analysis can never be
// returned.  Version 2 switched the image salt from whole-text
// hashing to layout hashing plus per-bundle external-read validation
// (see imageSalt), so keys from version 1 mean something different.
// Version 3 ends a block at an instruction that annuls its successor
// (SPARC's bn,a), which then sits on no path.
const analysisVersion = 3

// Key content-addresses one routine analysis: a 64-bit FNV-1a digest
// over the routine's machine words, its entry-point offsets, the
// analysis version, the option bits that change analysis results, and
// a whole-image salt (see imageSalt).  Start and the word count are
// kept alongside the digest: block and instruction addresses are
// absolute, so an analysis is only reusable for a routine loaded at
// the same address, and keeping them in the key also cuts the
// collision surface.
type Key struct {
	Hash  uint64
	Start uint32
	Words uint32
}

// readDep records one word of the image outside the routine's own
// extent that the analysis consulted (a dispatch table or literal
// pointer slot found by indirect-jump slicing).  A cached bundle is
// valid only while every recorded word still reads the same.
type readDep struct {
	addr uint32
	word uint32
	ok   bool
}

// bundle is the immutable payload cached per key.  Graphs, liveness
// maps, dominators, and loops are shared on a hit — callers must
// treat them as read-only, which every analysis consumer in this
// repository does.
type bundle struct {
	graph *cfg.Graph
	live  *dataflow.Liveness
	idom  *dataflow.DomTree
	// loops is nil when the loop stage was skipped and empty when it
	// found none.
	loops []*dataflow.Loop
	// tail records a hidden-routine discovery (§3.1 stage 4) made
	// while this analysis was first computed, so a hit on a fresh
	// executable replays the split; 0 when none.
	tail uint32
	// reads are the analysis's out-of-routine image dependencies,
	// validated on every hit (see imageSalt for why the key alone
	// cannot cover them).
	reads []readDep
	// work volume, replayed into Stats on a hit so cached and
	// uncached runs report comparable totals.
	insts, blocks, edges int64
}

// depsValid reports whether every external word b's analysis read
// still has the value it read — the incremental-re-analysis
// invariant: a routine's cached bundle survives edits elsewhere in
// the image exactly when none of the words it actually consulted
// changed.
func (b *bundle) depsValid(e *core.Executable) bool {
	for _, d := range b.reads {
		w, ok := e.ReadWord(d.addr)
		if ok != d.ok || (ok && w != d.word) {
			return false
		}
	}
	return true
}

// Cache is a bounded, content-addressed memoization of routine
// analyses with LRU eviction, optionally backed by a persistent
// second level.  It is safe for concurrent use by the pipeline's
// workers and may be shared across executables and across AnalyzeAll
// runs; re-analyzing an unchanged program is pure hits.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*list.Element
	order    *list.List // front = most recently used

	backend *DiskStore

	hits, misses, evictions atomic.Uint64
}

// lruEntry is what order elements carry.
type lruEntry struct {
	key Key
	b   *bundle
}

// DefaultCacheCapacity bounds a Cache built with capacity <= 0.
const DefaultCacheCapacity = 4096

// NewCache builds a cache holding at most capacity routine analyses
// (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		order:    list.New(),
	}
}

// SetBackend attaches a disk store as the second level, consulted on
// in-memory misses and populated on computes.  Call it before sharing
// the cache.
func (c *Cache) SetBackend(b *DiskStore) { c.backend = b }

// lookup returns the cached bundle for k without touching hit/miss
// accounting (the caller counts after validating the bundle against
// the executable, so a dependency-invalidated entry counts as a
// miss, not a hit).
func (c *Cache) lookup(k Key) (*bundle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).b, true
}

// countHit / countMiss attribute one access to both the cache's
// lifetime counters and col's per-run counters.  Attributing at the
// access (rather than differencing the lifetime counters around a
// run) is what keeps concurrent AnalyzeAll runs sharing one cache
// from claiming each other's traffic.
func (c *Cache) countHit(col *collector) {
	c.hits.Add(1)
	col.cacheHits.Add(1)
}

func (c *Cache) countMiss(col *collector) {
	c.misses.Add(1)
	col.cacheMisses.Add(1)
}

// put stores b under k, evicting least-recently-used entries beyond
// capacity; evictions are charged to col's run.  Storing an existing
// key refreshes it (two workers racing on identical routines both
// compute; the second store wins, which is harmless since the bundles
// are equivalent).
func (c *Cache) put(k Key, b *bundle, col *collector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruEntry).b = b
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&lruEntry{key: k, b: b})
	for len(c.entries) > c.capacity {
		last := c.order.Back()
		if last == nil {
			break
		}
		c.order.Remove(last)
		delete(c.entries, last.Value.(*lruEntry).key)
		c.evictions.Add(1)
		col.cacheEvict.Add(1)
	}
}

// Len returns the number of cached analyses.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters returns lifetime hit/miss/eviction counts.
func (c *Cache) Counters() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// imageSalt digests the image properties outside a routine's own
// words that can still influence its analysis: the container format,
// the entry point, every section's name and placement, and the full
// contents of non-text sections.  The text section contributes only
// its layout — hashing its contents would make every routine's key
// change whenever any routine changes, defeating incremental
// re-analysis.  What this leaves uncovered (text words outside the
// routine that slicing read: dispatch tables, literal pointer slots)
// is recorded per bundle as readDeps and validated on every hit.
func imageSalt(e *core.Executable) uint64 {
	h := fnv.New64a()
	writeU32 := func(v uint32) {
		h.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	h.Write([]byte(e.File.Format))
	writeU32(e.File.Entry)
	text := e.File.Text()
	for i := range e.File.Sections {
		s := &e.File.Sections[i]
		h.Write([]byte(s.Name))
		writeU32(s.Addr)
		writeU32(uint32(len(s.Data)))
		if s != text {
			h.Write(s.Data)
		}
	}
	return h.Sum64()
}

// routineKey content-addresses r's current extent.  ok is false when
// the routine's words are not fully mapped in the text section, in
// which case the analysis is simply not cached.
func routineKey(e *core.Executable, r *core.Routine, salt uint64) (Key, bool) {
	text := e.File.Text()
	if text == nil || r.Start < text.Addr || r.End > text.End() || r.End < r.Start {
		return Key{}, false
	}
	words := text.Data[r.Start-text.Addr : r.End-text.Addr]
	h := fnv.New64a()
	writeU32 := func(v uint32) {
		h.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	writeU32(analysisVersion)
	writeU32(optionBits(e))
	writeU32(uint32(salt >> 32))
	writeU32(uint32(salt))
	for _, entry := range r.Entries {
		writeU32(entry - r.Start)
	}
	h.Write(words)
	return Key{Hash: h.Sum64(), Start: r.Start, Words: uint32(len(words) / 4)}, true
}

// optionBits encodes the executable options that change analysis
// results (they gate indirect-jump resolution in the CFG builder).
func optionBits(e *core.Executable) uint32 {
	var bits uint32
	if e.ForceRuntimeTranslation {
		bits |= 1
	}
	if e.LightAnalysis {
		bits |= 2
	}
	return bits
}
