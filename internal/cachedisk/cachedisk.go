// Package cachedisk is a dependency-free disk-backed result cache
// implementing engine.CacheBackend. Results are appended to segment files
// under a cache directory as CRC-checked records keyed by the engine's
// fingerprint-derived cache keys; an in-memory index maps each key to its
// newest record. Opening the same directory again rebuilds the index from
// the segments, which is what lets a restarted (or replicated, over shared
// storage) kiterd warm-start from prior runs.
//
// Record payloads are resultcodec frames (segment format v2) — the same
// binary encoding the cluster wire speaks, so a record written here and a
// result fetched from a peer are the same bytes.
//
// Durability is deliberately best-effort: the store is a cache, never a
// source of truth. Writes are not fsynced, corrupt records (truncation,
// bit flips) are skipped at open and demoted to misses at read time, and
// segment files with an unknown header version are discarded wholesale so
// a format change never poisons a newer process. When the directory grows
// past its byte quota a background compactor drops whole segments oldest
// first — segment-granular FIFO eviction, not LRU; the memory tier above
// this store keeps the hot set, and write-through repopulates anything
// recomputed.
package cachedisk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"kiter/internal/engine"
	"kiter/internal/faultinject"
	"kiter/internal/resultcodec"
)

// Segment file layout: an 8-byte header (magic "KITC" + little-endian
// uint32 format version), then records back to back. Each record is a
// 12-byte header — uint32 key length, uint32 payload length, uint32
// IEEE CRC over key+payload — followed by the key bytes and the payload
// (a resultcodec frame).
// Records are immutable once written; a re-Put of a key appends a new
// record and the index forgets the old one.
const (
	magic          = "KITC"
	formatVersion  = 2
	fileHeaderLen  = 8
	recHeaderLen   = 12
	maxKeyLen      = 1 << 20  // keys are fingerprint+knobs, well under this
	maxPayloadLen  = 64 << 20 // matches the server's request body cap
	defaultQuota   = 256 << 20
	minSegmentSize = 64 << 10
	maxSegmentSize = 8 << 20
)

// Options tunes a Store.
type Options struct {
	// MaxBytes caps the directory's total segment bytes; past it the
	// background compactor evicts the oldest segments until back under
	// quota (<= 0 picks the 256 MiB default).
	MaxBytes int64
	// SegmentBytes is the active-segment rotation threshold (<= 0 picks
	// MaxBytes/8 clamped to [64 KiB, 8 MiB]). Smaller segments mean
	// finer-grained eviction at the cost of more files.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = defaultQuota
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = min(max(o.MaxBytes/8, minSegmentSize), maxSegmentSize)
	}
	return o
}

// Store is the disk backend. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	index  map[string]recordRef
	segs   []*segment // oldest first
	active *segment   // the append target, last in segs; nil in read-only mode
	total  int64      // sum of segment sizes
	nextID int
	closed bool

	hits, misses atomic.Uint64

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
}

type segment struct {
	id   int
	path string
	f    *os.File // read-only for loaded segments, read-write for the active one
	size int64
}

type recordRef struct {
	seg        *segment
	off        int64 // record header offset
	keyLen     uint32
	payloadLen uint32
}

// Open opens (creating if needed) the cache directory and rebuilds the
// index from its segments. Unreadable, truncated or corrupt content is
// skipped, never fatal: the worst case is an empty cache.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachedisk: %w", err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		index:     make(map[string]recordRef),
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	// Appends always go to a fresh segment: loaded segments stay frozen
	// behind read-only handles, which is what lets a replica be seeded
	// from a read-only snapshot of another cache's directory. If even the
	// fresh segment cannot be created — the directory itself is read-only
	// — the store degrades to a read-only cache: Gets serve the snapshot,
	// Puts are dropped, compaction never runs.
	if err := s.rotateLocked(); err != nil {
		s.active = nil
	}
	s.wg.Add(1)
	go s.compactLoop()
	s.maybeCompact()
	return s, nil
}

// load scans every segment file in the directory, oldest first, so that
// within and across segments the newest record of a key wins the index.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cachedisk: %w", err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.kcache", &id); err == nil && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		path := filepath.Join(s.dir, segName(id))
		seg, stale := s.openSegment(id, path)
		if seg == nil {
			if stale {
				// Wrong magic or a stale format version: the file is one
				// of ours by name but confirmed unreadable by design —
				// discard it rather than let dead bytes linger forever. A
				// transient I/O failure (permissions, fd pressure) is NOT
				// grounds for deletion: the segment is skipped this run
				// and may well load on the next.
				os.Remove(path)
			}
			continue
		}
		// Every id ever seen — even a stale one we just removed — bumps
		// nextID, so a fresh active segment never collides.
		s.segs = append(s.segs, seg)
		s.total += seg.size
	}
	return nil
}

// openSegment validates one segment's header and scans its records into
// the index. Loaded segments are frozen: they are opened read-only (so a
// directory seeded from a read-only snapshot works) and appends only ever
// go to the fresh active segment. On failure seg is nil and stale reports
// whether the file is confirmed to be a dead format (delete-worthy) as
// opposed to transiently unreadable (leave it for the next open).
func (s *Store) openSegment(id int, path string) (seg *segment, stale bool) {
	if id >= s.nextID {
		s.nextID = id + 1
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false
	}
	if fi.Size() < fileHeaderLen {
		// Too short to even hold a header: a torn segment creation.
		f.Close()
		return nil, true
	}
	var hdr [fileHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, false
	}
	if string(hdr[:4]) != magic || binary.LittleEndian.Uint32(hdr[4:]) != formatVersion {
		f.Close()
		return nil, true
	}
	seg = &segment{id: id, path: path, f: f}
	// An unparseable tail (a torn final write) is excluded from the
	// segment's logical size; since frozen segments take no appends, the
	// dead bytes are merely carried until compaction drops the segment.
	seg.size = s.scanRecords(seg, fi.Size())
	return seg, false
}

// scanRecords walks seg's records from the file header to the first
// structural inconsistency, indexing every record whose CRC holds. A CRC
// mismatch with plausible lengths (a bit flip in the body) skips just that
// record; an implausible length or a record overrunning the file (torn
// write, flipped length field) abandons the rest of the segment, since
// record boundaries downstream of it can no longer be trusted. Returns
// the end offset of the last well-formed record.
func (s *Store) scanRecords(seg *segment, size int64) int64 {
	off := int64(fileHeaderLen)
	var hdr [recHeaderLen]byte
	for off+recHeaderLen <= size {
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			break
		}
		keyLen := binary.LittleEndian.Uint32(hdr[0:])
		payloadLen := binary.LittleEndian.Uint32(hdr[4:])
		sum := binary.LittleEndian.Uint32(hdr[8:])
		if keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
			break
		}
		next := off + recHeaderLen + int64(keyLen) + int64(payloadLen)
		if next > size {
			break
		}
		body := make([]byte, keyLen+payloadLen)
		if _, err := seg.f.ReadAt(body, off+recHeaderLen); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) == sum {
			key := string(body[:keyLen])
			s.index[key] = recordRef{seg: seg, off: off, keyLen: keyLen, payloadLen: payloadLen}
		}
		off = next
	}
	return off
}

func segName(id int) string { return fmt.Sprintf("seg-%06d.kcache", id) }

// rotateLocked starts a fresh active segment. Callers hold s.mu (or are
// single-threaded in Open).
func (s *Store) rotateLocked() error {
	path := filepath.Join(s.dir, segName(s.nextID))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("cachedisk: %w", err)
	}
	var hdr [fileHeaderLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("cachedisk: %w", err)
	}
	seg := &segment{id: s.nextID, path: path, f: f, size: fileHeaderLen}
	s.segs = append(s.segs, seg)
	s.active = seg
	s.total += fileHeaderLen
	s.nextID++
	return nil
}

// Get implements engine.CacheBackend. The record's CRC is re-verified on
// every read, so corruption that postdates the open scan (or slipped past
// it) degrades to a miss, never a bad Result. Only the index lookup holds
// the store lock: the read, CRC and JSON decode (up to 64 MiB of payload)
// run outside it, so concurrent workers' cache traffic is not serialized
// behind one slow hit. That is safe because records are immutable and
// compaction closes a segment's handle only after de-indexing it — a
// racing eviction surfaces here as a read error, i.e. a miss.
func (s *Store) Get(key string) (*engine.Result, bool) {
	// Chaos seam: an injected "cache.get" fault degrades to a miss, the
	// same path a corrupt or evicted record takes.
	if faultinject.Fire(faultinject.PointCacheGet) != nil {
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	ref, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	f := ref.seg.f
	s.mu.Unlock()

	buf := make([]byte, recHeaderLen+int64(ref.keyLen)+int64(ref.payloadLen))
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return s.drop(key, ref)
	}
	body := buf[recHeaderLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[8:]) ||
		string(body[:ref.keyLen]) != key {
		return s.drop(key, ref)
	}
	// A payload that passes the record CRC but is not a resultcodec frame
	// degrades to a miss like any other corruption.
	res, err := resultcodec.Decode(body[ref.keyLen:])
	if err != nil {
		return s.drop(key, ref)
	}
	s.hits.Add(1)
	return res, true
}

// drop forgets a record that failed read-time verification — unless a
// concurrent Put or compaction already replaced or removed the index
// entry, in which case the newer state stands.
func (s *Store) drop(key string, ref recordRef) (*engine.Result, bool) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == ref {
		delete(s.index, key)
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return nil, false
}

// Put implements engine.CacheBackend: append-only write-behind of one
// result. Only the offset reservation (and, when needed, the segment
// rotation) holds the store lock; the marshal happens before it and the
// disk write after it, so a slow multi-megabyte append never stalls other
// workers' index lookups. The record is indexed only once its write fully
// succeeded: concurrent readers can never see in-progress bytes, and a
// failed write just leaves an unindexed hole that the reopen scan treats
// as the segment's end (losing at worst the records appended after it in
// that segment — recomputation, not corruption). Failures are otherwise
// swallowed: the entry simply isn't cached.
func (s *Store) Put(key string, res *engine.Result) {
	if key == "" || len(key) > maxKeyLen || res == nil {
		return
	}
	// Chaos seam: an injected "cache.put" fault drops the write, exactly
	// like a failed append (the entry simply isn't cached).
	if faultinject.Fire(faultinject.PointCachePut) != nil {
		return
	}
	// Size the payload before encoding it: an over-quota record is
	// rejected without paying for the (potentially multi-megabyte)
	// allocation it would have produced.
	payloadLen := resultcodec.EncodedSize(res)
	if payloadLen > maxPayloadLen {
		return
	}
	payload := resultcodec.Encode(res)
	rec := make([]byte, recHeaderLen+len(key)+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(payload)))
	copy(rec[recHeaderLen:], key)
	copy(rec[recHeaderLen+len(key):], payload)
	binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(rec[recHeaderLen:]))

	s.mu.Lock()
	if s.closed || s.active == nil {
		s.mu.Unlock()
		return
	}
	if s.active.size+int64(len(rec)) > s.opts.SegmentBytes && s.active.size > fileHeaderLen {
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			return
		}
	}
	active := s.active
	off := active.size
	active.size += int64(len(rec))
	s.total += int64(len(rec))
	needCompact := s.total > s.opts.MaxBytes
	s.mu.Unlock()

	if _, err := active.f.WriteAt(rec, off); err == nil {
		s.mu.Lock()
		if !s.closed {
			s.index[key] = recordRef{
				seg:        active,
				off:        off,
				keyLen:     uint32(len(key)),
				payloadLen: uint32(len(payload)),
			}
		}
		s.mu.Unlock()
	}
	if needCompact {
		s.maybeCompact()
	}
}

// maybeCompact nudges the compactor without blocking the caller.
func (s *Store) maybeCompact() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			s.compact()
		}
	}
}

// compact evicts the oldest segments until the directory is back under
// quota. The active segment is never evicted (quota pressure first forces
// a rotation via Put, so there is always an older segment to drop), and a
// read-only store never compacts: it could not delete the snapshot's
// files anyway.
func (s *Store) compact() {
	for {
		s.mu.Lock()
		if s.closed || s.active == nil || s.total <= s.opts.MaxBytes ||
			len(s.segs) <= 1 || s.segs[0] == s.active {
			s.mu.Unlock()
			return
		}
		oldest := s.segs[0]
		s.segs = s.segs[1:]
		for k, ref := range s.index {
			if ref.seg == oldest {
				delete(s.index, k)
			}
		}
		s.total -= oldest.size
		s.mu.Unlock()
		oldest.f.Close()
		os.Remove(oldest.path)
	}
}

// Len implements engine.CacheBackend.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the directory's current segment byte total.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// TierStats reports the store as the "disk" tier on engine.Stats.
func (s *Store) TierStats() []engine.CacheTierStats {
	s.mu.Lock()
	entries, bytes := len(s.index), s.total
	s.mu.Unlock()
	return []engine.CacheTierStats{{
		Tier:    "disk",
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Entries: entries,
		Bytes:   bytes,
	}}
}

// Close implements engine.CacheBackend: it stops the compactor and closes
// every segment handle. Close is idempotent, and Get/Put after Close are
// no-op misses.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	segs := s.segs
	s.mu.Unlock()
	s.wg.Wait()
	for _, seg := range segs {
		seg.f.Close()
	}
	return nil
}
