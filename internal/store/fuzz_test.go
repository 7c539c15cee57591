package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzGetMatchesJSON checks the hit decode, putValue, against
// encoding/json, which decodes every record the scan reads. It touches no
// disk. (a) The put record that encodeFrame writes for key and val reads
// back as val whenever key is valid UTF-8 (Put refuses any other key).
// (b) Whatever payload putValue accepts for key, json.Unmarshal decodes
// to a put record of that key holding the same value: the hit decode
// accepts nothing the scan would read differently.
func FuzzGetMatchesJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, val, payload []byte) {
		if utf8.ValidString(key) {
			frame, err := encodeFrame(record{Type: "put", Key: key, Val: val})
			if err != nil {
				t.Fatalf("encodeFrame(%q): %v", key, err)
			}
			put, err := framePayload(frame)
			if err != nil {
				t.Fatalf("framePayload of the frame written for %q: %v", key, err)
			}
			got, err := putValue(put, key)
			if err != nil || !bytes.Equal(got, val) {
				t.Fatalf("putValue(%q, %q) = %q, %v; %q was put", put, key, got, err, val)
			}
		}
		got, err := putValue(payload, key)
		if err != nil {
			return
		}
		var rec record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil || rec.Type != "put" || rec.Key != key ||
			!bytes.Equal(rec.Val, got) || rec.Schema != "" || rec.Segment != 0 {
			t.Fatalf("putValue(%q, %q) accepted %q, but json.Unmarshal reads %+v, %v", payload, key, got, rec, jerr)
		}
	})
}

// FuzzStoreRecovery puts a few records, closes the store, damages its
// segment as the input says and reopens it twice. Whatever the damage,
// Open succeeds, every Get returns exactly the bytes put under its key or
// a miss, a record put after the recovery survives a reopen, and the
// second Open recovers nothing and serves the same hits as the first.
// Undamaged, every record hits.
//
// The input reads as follows (missing bytes read as zero): the record
// count in [1, 4]; per record a key of up to 15 bytes and a value of up
// to 63, each after its length byte (keys are made unique by an index
// prefix and valid UTF-8, so JSON carries them unchanged); up to three
// damage ops; and whether the .idx sidecar is kept (odd) or removed. An
// op is a kind byte, then its operands:
//
//	0  cut: drop the segment's last n bytes (n: one byte)
//	1  flip: XOR byte pos of frame k with mask (k, pos, mask: one byte each; mask 0 means 0xFF)
//	2  length: set frame k's length prefix to l (k: one byte, l: 4 bytes little-endian)
//	3  garbage: append n bytes (n: one byte, mod 32), taken from the input
//
// Frames count from 0, the segment's header frame, modulo the frame
// count, and are located in the undamaged segment; pos is taken modulo
// the frame's length.
func FuzzStoreRecovery(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		take := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = next()
			}
			return b
		}
		dir := t.TempDir()
		s := openT(t, dir, Options{})
		want := map[string][]byte{}
		for i := range 1 + int(next()%4) {
			k := fmt.Sprintf("%d|%s", i, strings.ToValidUTF8(string(take(int(next()%16))), ""))
			want[k] = take(int(next() % 64))
			mustPut(t, s, k, want[k])
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		seg := segFile(t, dir)
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var frames [][2]int // [start, end) of each frame
		for off := 0; off+frameHeader <= len(buf); {
			end := off + frameHeader + int(binary.LittleEndian.Uint32(buf[off:]))
			frames = append(frames, [2]int{off, end})
			off = end
		}
		ops := int(next() % 4)
		for range ops {
			switch next() % 4 {
			case 0:
				buf = buf[:len(buf)-min(len(buf), int(next()))]
			case 1:
				fr := frames[int(next())%len(frames)]
				pos, mask := fr[0]+int(next())%(fr[1]-fr[0]), next()
				if mask == 0 {
					mask = 0xFF
				}
				if pos < len(buf) {
					buf[pos] ^= mask
				}
			case 2:
				fr := frames[int(next())%len(frames)]
				l := take(4)
				if fr[0]+4 <= len(buf) {
					copy(buf[fr[0]:], l)
				}
			case 3:
				buf = append(buf, take(int(next()%32))...)
			}
		}
		if next()%2 == 0 {
			idxs, _ := filepath.Glob(filepath.Join(dir, "*.idx"))
			for _, idx := range idxs {
				if err := os.Remove(idx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(seg, buf, 0o644); err != nil {
			t.Fatal(err)
		}

		// hits checks every Get of s against the bytes put and returns the
		// keys that hit.
		hits := func(s *Store, open string) map[string]bool {
			t.Helper()
			got := map[string]bool{}
			for k, v := range want {
				b, ok := s.Get(k)
				if ok && !bytes.Equal(b, v) {
					t.Fatalf("%s Open: Get(%q) = %q, but %q was put", open, k, b, v)
				}
				got[k] = ok
			}
			return got
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("first Open of the damaged store: %v", err)
		}
		first := hits(s2, "first")
		for k, ok := range first {
			if !ok && ops == 0 {
				t.Fatalf("undamaged store: Get(%q) missed", k)
			}
		}
		mustPut(t, s2, "fresh", []byte("after recovery"))
		if err := s2.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}
		s3, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s3.Close() //mklint:allow errdrop — test cleanup
		if n := s3.Stats().CorruptRecovered; n != 0 {
			t.Fatalf("second Open recovered %d corrupt tails", n)
		}
		for k, ok := range hits(s3, "second") {
			if ok != first[k] {
				t.Fatalf("Get(%q) hit %v after the first Open, %v after the second", k, first[k], ok)
			}
		}
		mustGet(t, s3, "fresh", []byte("after recovery"))
	})
}
