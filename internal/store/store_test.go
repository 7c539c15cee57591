package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(key, val); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key string, want []byte) {
	t.Helper()
	got, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get(%s): miss, want hit", key)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = %q, want %q", key, got, want)
	}
}

func segFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	if len(names) > 1 {
		t.Fatalf("expected one segment, found %v", names)
	}
	return names[0]
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("run|fp%d|dp|both|2020|100000|0", i)
		v := []byte(fmt.Sprintf(`{"schema":"mkss-run/v1","n":%d}`, i))
		vals[k] = v
		mustPut(t, s, k, v)
	}
	for k, v := range vals {
		mustGet(t, s, k, v)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A second process lifetime over the same directory serves the same
	// bytes — the cross-restart dedupe the store exists for.
	s2 := openT(t, dir, Options{})
	defer s2.Close() //mklint:allow errdrop — read-only reopen in a test
	for k, v := range vals {
		mustGet(t, s2, k, v)
	}
	if st := s2.Stats(); st.Keys != len(vals) {
		t.Fatalf("Stats.Keys = %d, want %d", st.Keys, len(vals))
	}
}

func TestGetMissAndCounters(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close() //mklint:allow errdrop — test cleanup
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	mustPut(t, s, "k", []byte("v"))
	mustGet(t, s, "k", []byte("v"))
	snap := s.Stats()
	if snap.Hits != 1 || snap.Misses != 1 || snap.Writes != 1 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss / 1 write", snap)
	}
}

// TestCrashRecoveryTornTail is the kill-9 scenario: the process dies
// mid-append, leaving a torn frame at the segment tail. Reopen must
// truncate the tear, count the recovery, and keep serving every record
// before it — and the store must accept new writes afterwards.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "keep-1", []byte("value-one"))
	mustPut(t, s, "keep-2", []byte("value-two"))
	mustPut(t, s, "torn", []byte("this record will be half-written"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate the torn append: chop bytes off the tail, mid-record.
	seg := segFile(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	s2 := openT(t, dir, Options{Log: &log})
	mustGet(t, s2, "keep-1", []byte("value-one"))
	mustGet(t, s2, "keep-2", []byte("value-two"))
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn record served after recovery")
	}
	if snap := s2.Stats(); snap.CorruptRecovered != 1 {
		t.Fatalf("CorruptRecovered = %d, want 1", snap.CorruptRecovered)
	}
	if !bytes.Contains(log.Bytes(), []byte("recovered")) {
		t.Fatalf("recovery not logged; log = %q", log.String())
	}

	// The truncated store is append-able again, and the re-put survives
	// a further clean reopen.
	mustPut(t, s2, "torn", []byte("rewritten"))
	mustGet(t, s2, "torn", []byte("rewritten"))
	if err := s2.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	s3 := openT(t, dir, Options{})
	defer s3.Close() //mklint:allow errdrop — test cleanup
	mustGet(t, s3, "torn", []byte("rewritten"))
	if snap := s3.Stats(); snap.CorruptRecovered != 0 {
		t.Fatalf("clean reopen reported %d recoveries", snap.CorruptRecovered)
	}
}

// TestCrashRecoveryFlippedByte corrupts a record body (bit rot rather
// than a torn tail): the scan must stop at the bad CRC and drop
// everything from there.
func TestCrashRecoveryFlippedByte(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "first", []byte("intact"))
	mustPut(t, s, "second", []byte("to be corrupted"))
	mustPut(t, s, "third", []byte("after the corruption"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seg := segFile(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Values are base64 in the record payload; keys are plain JSON, so
	// the second record's key is a findable corruption target.
	at := bytes.Index(buf, []byte(`"key":"second"`))
	if at < 0 {
		t.Fatal("corruption target not found in segment")
	}
	buf[at] ^= 0xFF
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the sidecar: its size still matches, and a matching sidecar
	// skips the verifying scan (bit rot under an intact sidecar is caught
	// lazily, at Get). The scan path is what this test pins.
	idxs, _ := filepath.Glob(filepath.Join(dir, "*.idx"))
	for _, idx := range idxs {
		if err := os.Remove(idx); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openT(t, dir, Options{})
	defer s2.Close() //mklint:allow errdrop — test cleanup
	mustGet(t, s2, "first", []byte("intact"))
	for _, k := range []string{"second", "third"} {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("Get(%s) hit after mid-file corruption", k)
		}
	}
	if snap := s2.Stats(); snap.CorruptRecovered != 1 {
		t.Fatalf("CorruptRecovered = %d, want 1", snap.CorruptRecovered)
	}
}

func TestSegmentRollAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{MaxSegmentBytes: 256})
	want := map[string][]byte{}
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("key-%02d", i)
		want[k] = []byte(fmt.Sprintf("value-%02d-padding-padding-padding", i))
		mustPut(t, s, k, want[k])
	}
	// Overwrites supersede, growing dead weight for compaction to drop.
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("key-%02d", i)
		want[k] = []byte(fmt.Sprintf("value-%02d-v2", i))
		mustPut(t, s, k, want[k])
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2 after rolling at 256 bytes", st.Segments)
	}
	if st.Superseded != 6 {
		t.Fatalf("Superseded = %d, want 6", st.Superseded)
	}
	before := st.DiskBytes

	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st = s.Stats()
	if st.Segments != 1 || st.Superseded != 0 {
		t.Fatalf("after compact: %+v, want 1 segment, 0 superseded", st)
	}
	if st.DiskBytes >= before {
		t.Fatalf("compaction did not shrink the store: %d -> %d bytes", before, st.DiskBytes)
	}
	if st.Keys != len(want) {
		t.Fatalf("Keys = %d, want %d", st.Keys, len(want))
	}
	for k, v := range want {
		mustGet(t, s, k, v)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(names) != 1 {
		t.Fatalf("superseded segments not deleted: %v", names)
	}

	// The compacted store keeps working: appends, close, reopen.
	mustPut(t, s, "post-compact", []byte("appended"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, dir, Options{MaxSegmentBytes: 256})
	defer s2.Close() //mklint:allow errdrop — test cleanup
	for k, v := range want {
		mustGet(t, s2, k, v)
	}
	mustGet(t, s2, "post-compact", []byte("appended"))
}

// TestIndexSidecarRebuilt: a stale or damaged .idx sidecar must never
// poison the store — it is ignored and the segment rescanned.
func TestIndexSidecarRebuilt(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "a", []byte("1"))
	mustPut(t, s, "b", []byte("2"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	idxs, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil || len(idxs) == 0 {
		t.Fatalf("Close wrote no index sidecar (err=%v)", err)
	}
	if werr := os.WriteFile(idxs[0], []byte("not json"), 0o644); werr != nil {
		t.Fatal(werr)
	}
	s2 := openT(t, dir, Options{})
	defer s2.Close() //mklint:allow errdrop — test cleanup
	mustGet(t, s2, "a", []byte("1"))
	mustGet(t, s2, "b", []byte("2"))
}

func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put("k2", []byte("v2")); err != ErrClosed {
		t.Fatalf("Put on closed store: err = %v, want ErrClosed", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("Compact on closed store: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestPutSameValueWritesNothing: a re-Put of the value a key's live
// record already holds leaves the store as it was, while a different
// value still supersedes it.
func TestPutSameValueWritesNothing(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close() //mklint:allow errdrop — test cleanup
	mustPut(t, s, "k", []byte("v1"))
	before := s.Stats()
	mustPut(t, s, "k", []byte("v1"))
	if after := s.Stats(); after.Writes != before.Writes || after.Superseded != before.Superseded ||
		after.DiskBytes != before.DiskBytes {
		t.Fatalf("identical re-Put changed the store: %+v -> %+v", before, after)
	}
	mustPut(t, s, "k", []byte("v2"))
	if st := s.Stats(); st.Writes != 2 || st.Superseded != 1 || st.DiskBytes <= before.DiskBytes {
		t.Fatalf("re-Put of a new value: %+v, want 2 writes, 1 superseded, more bytes", st)
	}
	mustGet(t, s, "k", []byte("v2"))
}

// TestSupersededSurvivesReopen: the superseded count reads the same
// before Close, after a reopen from the index sidecars and after a
// reopen that rescans every segment, for one segment and for a store
// rolled across several.
func TestSupersededSurvivesReopen(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
	}{{"one segment", 0}, {"rolled", 256}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{MaxSegmentBytes: tc.maxBytes}
			s := openT(t, dir, opts)
			for round := 0; round < 3; round++ {
				for i := 0; i < 6; i++ {
					mustPut(t, s, fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("value-%02d-round-%d-padding", i, round)))
				}
			}
			want := s.Stats()
			if want.Superseded != 12 {
				t.Fatalf("Superseded = %d before Close, want 12", want.Superseded)
			}
			if tc.maxBytes > 0 && want.Segments < 2 {
				t.Fatalf("Segments = %d, want a store rolled across several", want.Segments)
			}
			reopen := func(how string) {
				t.Helper()
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				s = openT(t, dir, opts)
				if st := s.Stats(); st.Superseded != want.Superseded || st.Segments != want.Segments {
					t.Fatalf("%s: Superseded %d over %d segments, want %d over %d",
						how, st.Superseded, st.Segments, want.Superseded, want.Segments)
				}
			}
			reopen("reopen from sidecars")
			reopen("second reopen from sidecars")
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			idxs, _ := filepath.Glob(filepath.Join(dir, "*.idx"))
			for _, idx := range idxs {
				if err := os.Remove(idx); err != nil {
					t.Fatal(err)
				}
			}
			s = openT(t, dir, opts)
			defer s.Close() //mklint:allow errdrop — test cleanup
			if st := s.Stats(); st.Superseded != want.Superseded {
				t.Fatalf("rescan: Superseded = %d, want %d", st.Superseded, want.Superseded)
			}
		})
	}
}
