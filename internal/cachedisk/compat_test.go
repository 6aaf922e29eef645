package cachedisk

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// writeRawSegment fabricates a segment file of the given format version
// with one record per (key, payload) pair — byte-identical to what a
// build writing that version would have produced.
func writeRawSegment(t *testing.T, path string, version uint32, recs map[string][]byte) {
	t.Helper()
	buf := make([]byte, fileHeaderLen)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	for key, payload := range recs {
		rec := make([]byte, recHeaderLen+len(key)+len(payload))
		binary.LittleEndian.PutUint32(rec[0:], uint32(len(key)))
		binary.LittleEndian.PutUint32(rec[4:], uint32(len(payload)))
		copy(rec[recHeaderLen:], key)
		copy(rec[recHeaderLen+len(key):], payload)
		binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(rec[recHeaderLen:]))
		buf = append(buf, rec...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyJSONSegmentDiscarded pins the rule for pre-codec directories:
// a v1 segment (JSON payloads) is an unknown format like any other, so it
// is discarded at Open, and the store starts empty and fully writable.
func TestLegacyJSONSegmentDiscarded(t *testing.T) {
	dir := t.TempDir()
	payload, err := json.Marshal(testResult("fp-legacy"))
	if err != nil {
		t.Fatal(err)
	}
	const v1 = 1 // the pre-codec segment format
	writeRawSegment(t, filepath.Join(dir, segName(0)), v1,
		map[string][]byte{"legacy-key": payload})

	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("len = %d, want 0 (v1 segment must be discarded)", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("v1 segment not removed: %v", err)
	}
	if res, ok := s.Get("legacy-key"); ok {
		t.Fatalf("discarded v1 record still answers: %+v", res)
	}

	s.Put("new-key", testResult("fp-new"))
	s.Put("legacy-key", testResult("fp-recomputed"))
	for key, want := range map[string]string{"legacy-key": "fp-recomputed", "new-key": "fp-new"} {
		if res, ok := s.Get(key); !ok || res.Fingerprint != want {
			t.Fatalf("%s after discarding v1: %+v, %v (want %s)", key, res, ok, want)
		}
	}
}

// TestCodecGarbagePayloadIsMiss covers the corruption case the record CRC
// cannot: a record whose bytes are internally consistent but whose payload
// is not a resultcodec frame (e.g. a JSON payload in a segment labelled
// v2). The decode failure must degrade to a miss, never a wrong result.
func TestCodecGarbagePayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	payload, err := json.Marshal(testResult("fp-json"))
	if err != nil {
		t.Fatal(err)
	}
	writeRawSegment(t, filepath.Join(dir, segName(0)), formatVersion,
		map[string][]byte{"mislabelled": payload})

	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if res, ok := s.Get("mislabelled"); ok {
		t.Fatalf("garbage payload decoded to %+v", res)
	}
	// The poisoned entry is dropped from the index, so the miss is
	// permanent rather than re-verified on every lookup.
	if s.Len() != 0 {
		t.Fatalf("len = %d after dropping garbage record, want 0", s.Len())
	}
}

// TestFutureFormatDiscarded pins the forward-compat rule: a segment from a
// format this build has never heard of is discarded wholesale, not parsed.
func TestFutureFormatDiscarded(t *testing.T) {
	dir := t.TempDir()
	writeRawSegment(t, filepath.Join(dir, segName(0)), formatVersion+1,
		map[string][]byte{"future": []byte("payload")})
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("len = %d, want 0 (future-format segment must be discarded)", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("future-format segment not removed: %v", err)
	}
}
