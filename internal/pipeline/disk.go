package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"eel/internal/obs"
	"eel/internal/telemetry"
)

// DiskStore is the persistent second level of the analysis cache: a
// log-structured directory of append-only segment files that
// survives process restarts and is shared by every client of a
// long-running server (cmd/eeld).  It implements Backend.
//
// Each Persist call writes one segment, named by a rising sequence
// number, holding one record per key.  An in-memory index maps each
// key to the segment, offset and length of its newest record, so a
// Load is one open and one read.  Segment order is recency order:
// the pipeline re-appends every disk hit to its run's batch, so a
// record that is still being used moves forward, and eviction drops
// whole oldest segments.
//
// Properties the service depends on:
//
//   - Crash safety: a segment is written to a temp file and renamed
//     into place, so a crash mid-write leaves at most a stray temp
//     file, never a half-written segment under a valid name.
//   - Corruption safety: every record carries a magic, a version, a
//     key echo, a length, and an FNV-64a checksum; a damaged record
//     is counted and treated as a miss, never fatal.
//   - Bounded: both the indexed entry count and the total size of the
//     segment files are capped; after every write and after recovery
//     the oldest segments are deleted until both bounds hold, and a
//     segment no indexed record points into is deleted at once.
//   - Concurrent: loads, writes, and evictions may interleave freely.
//     A reader that loses the race with an eviction sees a miss.
//
// Restart recovery sweeps temp files and scans the segments in
// sequence order, validating every record; a later record for a key
// supersedes an earlier one.  A bad record is skipped, and a torn
// tail loses only the records from the tear on.
type DiskStore struct {
	dir string

	mu         sync.Mutex
	index      map[Key]recordLoc
	segs       []*segment // oldest first; each holds an indexed record
	totalBytes int64      // size of the segment files in segs
	next       uint64     // sequence number of the next segment
	maxEntries int
	maxBytes   int64

	loads, loadHits, stores, evictions, corrupt atomic.Uint64
}

// segment is one segment file.  seq and size never change; keys and
// live are guarded by the store's lock.
type segment struct {
	seq  uint64
	size int64
	keys []Key // the keys of its valid records, in file order
	live int   // index entries pointing into it
}

// recordLoc locates one framed record.
type recordLoc struct {
	seg *segment
	off int64
	n   int64
}

// Record is one persisted analysis: a key and its encoded bundle.
type Record struct {
	Key  Key
	Data []byte
}

// PersistInfo describes one Persist call's write.
type PersistInfo struct {
	Bytes   int64  // size of the segment written
	Segment uint64 // its sequence number
	Dropped int    // segments deleted, by eviction or because no indexed record remained in them
}

// Default DiskStore bounds.
const (
	DefaultDiskEntries = 65536
	DefaultDiskBytes   = 256 << 20
)

const (
	diskMagic  = 0x45454c42 // "EELB"
	diskSuffix = ".eelb"
	tmpPrefix  = "tmp-"
	headerSize = 44
)

// OpenDiskStore opens (creating if needed) a persistent store rooted
// at dir, holding at most maxEntries entries and maxBytes of segment
// files (<= 0 selects the defaults).  Recovery sweeps temp files,
// indexes every valid record of every segment in sequence order (so
// a restarted server starts warm), and trims the store to its bounds.
func OpenDiskStore(dir string, maxEntries int, maxBytes int64) (*DiskStore, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultDiskEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDiskBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: disk store: %w", err)
	}
	s := &DiskStore{
		dir:        dir,
		index:      map[Key]recordLoc{},
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pipeline: disk store: %w", err)
	}
	sp := telemetry.ActiveTracer().Begin("disk.recover", "disk")
	s.mu.Lock()
	defer s.mu.Unlock()
	// ReadDir sorts by name, so segments come in sequence order.
	for _, de := range des {
		name := filepath.Join(s.dir, de.Name())
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			os.Remove(name) // crash leftovers
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(de.Name(), diskSuffix), 16, 64)
		if err != nil || s.segPath(seq) != name {
			continue // not a segment
		}
		data, err := os.ReadFile(name)
		if err != nil {
			continue // unindexed; a later write may replace it
		}
		seg := s.appendLocked(seq, int64(len(data)))
		for off := 0; off < len(data); {
			rest := data[off:]
			if len(rest) < headerSize || binary.BigEndian.Uint32(rest) != diskMagic ||
				binary.BigEndian.Uint64(rest[24:]) > uint64(len(rest)-headerSize) {
				s.corrupt.Add(1) // a torn or garbage tail: no record boundary is left
				break
			}
			n := headerSize + int(binary.BigEndian.Uint64(rest[24:]))
			if k := keyEcho(rest); unframe(k, rest[:n]) != nil {
				s.indexLocked(k, recordLoc{seg, int64(off), int64(n)})
			} else {
				s.corrupt.Add(1)
				obs.Record(obs.EvCacheCorrupt, uint64(k.Start), k.Hash)
			}
			off += n
		}
		if seg.live == 0 {
			s.dropLocked(seg)
		}
	}
	s.evictLocked()
	sp.Arg("segments", len(s.segs))
	sp.Arg("records", len(s.index))
	sp.Arg("corrupt", s.corrupt.Load())
	sp.End()
	return s, nil
}

// segPath names segment seq.  The fixed-width hex name makes
// directory order sequence order.
func (s *DiskStore) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x%s", seq, diskSuffix))
}

// appendRecord appends payload framed in the on-disk envelope: magic,
// version, key echo, length, checksum, reserved word, payload.  The
// key echo guards against a misplaced or hash-colliding record
// serving the wrong entry.
func appendRecord(buf []byte, k Key, payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	buf = binary.BigEndian.AppendUint32(buf, diskMagic)
	buf = binary.BigEndian.AppendUint32(buf, codecVersion)
	buf = binary.BigEndian.AppendUint64(buf, k.Hash)
	buf = binary.BigEndian.AppendUint32(buf, k.Start)
	buf = binary.BigEndian.AppendUint32(buf, k.Words)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.BigEndian.AppendUint64(buf, h.Sum64())
	buf = binary.BigEndian.AppendUint32(buf, 0)
	return append(buf, payload...)
}

// keyEcho reads the key a framed record was stored under.
func keyEcho(data []byte) Key {
	return Key{
		Hash:  binary.BigEndian.Uint64(data[8:]),
		Start: binary.BigEndian.Uint32(data[16:]),
		Words: binary.BigEndian.Uint32(data[20:]),
	}
}

// unframe validates one framed record and returns its payload, or nil
// when any envelope check fails.
func unframe(k Key, data []byte) []byte {
	if len(data) < headerSize || binary.BigEndian.Uint32(data) != diskMagic ||
		binary.BigEndian.Uint32(data[4:]) != codecVersion || keyEcho(data) != k ||
		binary.BigEndian.Uint64(data[24:]) != uint64(len(data)-headerSize) {
		return nil
	}
	h := fnv.New64a()
	h.Write(data[headerSize:])
	if h.Sum64() != binary.BigEndian.Uint64(data[32:]) {
		return nil
	}
	return data[headerSize:]
}

// Load implements Backend: it returns the payload stored under k, or
// ok=false.  A damaged record is counted and reported as a miss; the
// caller's recompute supersedes it.
func (s *DiskStore) Load(k Key) ([]byte, bool) {
	s.loads.Add(1)
	s.mu.Lock()
	loc, ok := s.index[k]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	f, err := os.Open(s.segPath(loc.seg.seq))
	if err != nil {
		return nil, false // lost a race with an eviction
	}
	defer f.Close()
	data := make([]byte, loc.n)
	n, _ := f.ReadAt(data, loc.off) // a short read fails unframe
	payload := unframe(k, data[:n])
	if payload == nil {
		s.corrupt.Add(1)
		obs.Record(obs.EvCacheCorrupt, uint64(k.Start), k.Hash)
		return nil, false
	}
	s.loadHits.Add(1)
	return payload, true
}

// Store persists one record: Persist with a batch of one.  A failed
// write is dropped, as it only costs a later miss.
func (s *DiskStore) Store(k Key, payload []byte) {
	s.Persist([]Record{{Key: k, Data: payload}})
}

// Persist implements Backend: it writes recs as one new segment,
// indexes them (a later record for a key supersedes an earlier one),
// and deletes the oldest segments until the store's bounds hold.
func (s *DiskStore) Persist(recs []Record) (PersistInfo, error) {
	if len(recs) == 0 {
		return PersistInfo{}, nil
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r.Key, r.Data)
	}
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return PersistInfo{}, fmt.Errorf("pipeline: disk store: %w", err)
	}
	_, err = tmp.Write(buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Renaming under the lock keeps sequence order and index order
	// the same, so recovery rebuilds the index this process had.
	if err == nil {
		err = os.Rename(tmp.Name(), s.segPath(s.next))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return PersistInfo{}, fmt.Errorf("pipeline: disk store: %w", err)
	}
	before := len(s.segs)
	seg := s.appendLocked(s.next, int64(len(buf)))
	off := int64(0)
	for _, r := range recs {
		n := int64(headerSize + len(r.Data))
		s.indexLocked(r.Key, recordLoc{seg, off, n})
		off += n
	}
	s.stores.Add(uint64(len(recs)))
	s.evictLocked()
	return PersistInfo{Bytes: seg.size, Segment: seg.seq, Dropped: before + 1 - len(s.segs)}, nil
}

// appendLocked lists a new segment as the newest.
func (s *DiskStore) appendLocked(seq uint64, size int64) *segment {
	seg := &segment{seq: seq, size: size}
	s.segs = append(s.segs, seg)
	s.totalBytes += size
	s.next = seq + 1
	return seg
}

// indexLocked points k at loc, releasing the record it supersedes.
func (s *DiskStore) indexLocked(k Key, loc recordLoc) {
	loc.seg.keys = append(loc.seg.keys, k)
	loc.seg.live++
	if old, ok := s.index[k]; ok {
		if old.seg.live--; old.seg.live == 0 {
			s.dropLocked(old.seg)
		}
	}
	s.index[k] = loc
}

// dropLocked unindexes seg's records, unlists it and deletes its
// file.  A reader that looked the segment up before the delete
// either still reads it or fails to open it: a clean miss either way.
func (s *DiskStore) dropLocked(seg *segment) {
	for _, k := range seg.keys {
		if loc, ok := s.index[k]; ok && loc.seg == seg {
			delete(s.index, k)
			s.evictions.Add(1)
		}
	}
	s.segs = slices.DeleteFunc(s.segs, func(g *segment) bool { return g == seg })
	s.totalBytes -= seg.size
	os.Remove(s.segPath(seg.seq))
}

// evictLocked deletes the oldest segments until both bounds hold.
func (s *DiskStore) evictLocked() {
	for len(s.segs) > 0 && (len(s.index) > s.maxEntries || s.totalBytes > s.maxBytes) {
		s.dropLocked(s.segs[0])
	}
}

// Len returns the number of indexed entries.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the total size of the store's segment files.
func (s *DiskStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalBytes
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// DiskCounters reports a store's lifetime activity.  Stores counts
// records written, Evictions indexed records dropped with their
// segment, and Corrupt damaged records found by recovery or Load.
type DiskCounters struct {
	Loads, LoadHits, Stores, Evictions, Corrupt uint64
}

// Counters returns lifetime load/store/eviction/corruption counts.
func (s *DiskStore) Counters() DiskCounters {
	return DiskCounters{
		Loads:     s.loads.Load(),
		LoadHits:  s.loadHits.Load(),
		Stores:    s.stores.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}
