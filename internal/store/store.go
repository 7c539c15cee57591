// Package store is the persistent, content-addressed result store —
// the dedupe layer that survives restarts. The analysis LRU (PR 2) and
// request coalescing (PR 4) collapse identical work within one process
// lifetime; this store collapses it across processes: mkservd consults
// it before admission (a hit returns stored bytes with no execution
// slot, byte-identical to a live run), and the fleet coordinator uses it
// as a cross-run sweep cache shared by every worker.
//
// On-disk layout: a directory of append-only segment files
// (000001.seg, 000002.seg, ...), each a sequence of length-prefixed
// frames
//
//	[4B little-endian payload length][4B little-endian CRC32(payload)][payload]
//
// where the payload is one mkss-store/v1 JSON record — a header record
// opening every segment, then one "put" record per stored result (key +
// base64 value). The JSON-in-frame layout keeps the file greppable and
// schema-versioned; the frame layer gives exact corruption detection.
//
// Durability model: appends go straight to the segment file, so a
// process crash can leave at most one torn frame at the tail. Open
// scans every segment, verifies each frame's length and CRC, and
// truncates the file at the first bad frame — dropping the torn tail,
// counting the recovery, and logging it. Everything before the tear is
// served normally. Index sidecars (000001.idx) are a pure optimization:
// a sorted key→offset table written via tmp-then-rename on seal/close,
// loaded only when its recorded size matches the segment (otherwise the
// segment is rescanned), and rebuildable from the segment at any time.
//
// A re-Put of an existing key with a different value appends a new
// record and supersedes the old one (last write wins); a re-Put of the
// same value writes nothing. Compact rewrites the live records into a
// single fresh segment — sorted by key, written tmp-then-rename — and
// deletes the superseded ones.
//
// Concurrency: one Store is safe for concurrent use within a process
// (RWMutex: concurrent Gets, exclusive Puts/Compact). Concurrent
// *processes* on one directory are not coordinated — the intended
// topology is one writer process at a time (sequential server restarts,
// or one fleet coordinator whose in-process workers share the same
// *Store value).
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Schema tags of the on-disk documents.
const (
	Schema      = "mkss-store/v1"
	IndexSchema = "mkss-store-idx/v1"
)

const (
	frameHeader = 8 // 4B length + 4B CRC32
	// maxFrameBytes bounds one record; a length prefix beyond it is
	// corruption, not a huge record.
	maxFrameBytes          = 16 << 20
	defaultMaxSegmentBytes = 4 << 20
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("store: closed")

// Options tunes Open. Zero values pick the documented defaults.
type Options struct {
	// MaxSegmentBytes rolls the active segment once it exceeds this size
	// (default 4 MiB). Compaction may produce one larger segment.
	MaxSegmentBytes int64
	// Log receives recovery and maintenance lines; nil discards them.
	Log io.Writer
}

// record is one frame's JSON payload.
type record struct {
	Schema  string `json:"schema,omitempty"` // header records carry the store schema
	Type    string `json:"type"`             // "header" or "put"
	Segment int    `json:"segment,omitempty"`
	Key     string `json:"key,omitempty"`
	Val     []byte `json:"val,omitempty"` // encoding/json base64s []byte
}

// segment is one on-disk segment file.
type segment struct {
	id   int
	path string
	read *os.File
	size int64 // verified-valid length
	live int   // index entries pointing into this segment
	puts int   // put records in the file, live or superseded
}

// entry locates one live record.
type entry struct {
	seg *segment
	off int64 // frame offset
	n   int   // full frame length
}

// Store is an open result store. Create with Open; always Close.
type Store struct {
	dir      string
	opts     Options
	counters *metrics.StoreCounters

	mu         sync.RWMutex
	index      map[string]entry
	segs       []*segment // ascending id; last is active
	w          *os.File   // append handle on the active segment; nil once closed
	superseded int
}

// Open opens (or creates) the store directory, recovering every segment:
// frames are length- and CRC-verified, and a segment with a torn or
// corrupt tail is truncated at the first bad frame — the recovery is
// counted and logged, everything before it is served.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = defaultMaxSegmentBytes
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, counters: &metrics.StoreCounters{}, index: map[string]entry{}}

	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Interrupted tmp-then-rename writes leave stray .tmp files; they
	// were never part of the store.
	if tmps, terr := filepath.Glob(filepath.Join(dir, "*.tmp")); terr == nil {
		for _, t := range tmps {
			if rerr := os.Remove(t); rerr != nil {
				fmt.Fprintf(opts.Log, "store: remove stale %s: %v\n", t, rerr)
			}
		}
	}
	ids := make([]int, 0, len(names))
	for _, name := range names {
		id, perr := segmentID(name)
		if perr != nil {
			fmt.Fprintf(opts.Log, "store: ignoring %s: %v\n", name, perr)
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		seg, oerr := s.openSegment(id)
		if oerr != nil {
			s.closeFiles()
			return nil, oerr
		}
		s.segs = append(s.segs, seg)
	}
	if len(s.segs) == 0 {
		seg, cerr := s.createSegment(1)
		if cerr != nil {
			return nil, cerr
		}
		s.segs = append(s.segs, seg)
	}
	active := s.segs[len(s.segs)-1]
	w, werr := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if werr != nil {
		s.closeFiles()
		return nil, fmt.Errorf("store: %w", werr)
	}
	s.w = w
	return s, nil
}

// segmentID parses the numeric id out of a NNNNNN.seg path.
func segmentID(path string) (int, error) {
	base := strings.TrimSuffix(filepath.Base(path), ".seg")
	var id int
	if _, err := fmt.Sscanf(base, "%d", &id); err != nil || id <= 0 {
		return 0, fmt.Errorf("not a segment file name")
	}
	return id, nil
}

func segmentPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.seg", id))
}

func indexPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.idx", id))
}

// openSegment loads one existing segment: from its index sidecar when
// the sidecar matches the file size, by a full verifying scan otherwise,
// truncating a corrupt tail in the scan case.
func (s *Store) openSegment(id int) (*segment, error) {
	path := segmentPath(s.dir, id)
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, path: path}
	if doc, ok := s.loadIndexSidecar(id, int64(len(buf))); ok {
		seg.size = int64(len(buf))
		// The sidecar lists only the records live when it was written;
		// the rest of its puts were superseded by then. A sidecar
		// without the count adds none.
		seg.puts = max(doc.Puts, len(doc.Entries))
		s.superseded += seg.puts - len(doc.Entries)
		for _, e := range doc.Entries {
			s.link(seg, e.Key, e.Off, e.N)
		}
	} else {
		ents, valid, serr := scanFrames(buf)
		if serr != nil {
			return nil, fmt.Errorf("store: segment %s: %w", path, serr)
		}
		if valid < int64(len(buf)) {
			if terr := os.Truncate(path, valid); terr != nil {
				return nil, fmt.Errorf("store: truncate corrupt tail of %s: %w", path, terr)
			}
			s.counters.CorruptRecovered(1)
			fmt.Fprintf(s.opts.Log, "store: recovered %s: dropped %d corrupt tail bytes at offset %d\n",
				path, int64(len(buf))-valid, valid)
		}
		seg.size = valid
		seg.puts = len(ents)
		for _, e := range ents {
			s.link(seg, e.Key, e.Off, e.N)
		}
	}
	f, ferr := os.Open(path)
	if ferr != nil {
		return nil, fmt.Errorf("store: %w", ferr)
	}
	seg.read = f
	return seg, nil
}

// link installs one scanned record into the index (last write wins).
func (s *Store) link(seg *segment, key string, off int64, n int) {
	if old, ok := s.index[key]; ok {
		old.seg.live--
		s.superseded++
	}
	s.index[key] = entry{seg: seg, off: off, n: n}
	seg.live++
}

// createSegment writes a fresh segment (header frame only) via
// tmp-then-rename and opens its read handle.
func (s *Store) createSegment(id int) (*segment, error) {
	frame, err := encodeFrame(record{Schema: Schema, Type: "header", Segment: id})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := segmentPath(s.dir, id)
	tmp := path + ".tmp"
	if werr := writeFileSync(tmp, frame); werr != nil {
		return nil, fmt.Errorf("store: %w", werr)
	}
	if rerr := os.Rename(tmp, path); rerr != nil {
		return nil, fmt.Errorf("store: %w", rerr)
	}
	f, ferr := os.Open(path)
	if ferr != nil {
		return nil, fmt.Errorf("store: %w", ferr)
	}
	return &segment{id: id, path: path, read: f, size: int64(len(frame))}, nil
}

// writeFileSync writes data and syncs it before closing — the write half
// of every tmp-then-rename.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, werr := f.Write(data); werr != nil {
		f.Close() //mklint:allow errdrop — the write error is the failure being reported
		return werr
	}
	if serr := f.Sync(); serr != nil {
		f.Close() //mklint:allow errdrop — the sync error is the failure being reported
		return serr
	}
	return f.Close()
}

// Put appends one result under key and hands it to the OS before it
// returns; it does not sync. An existing key with a different value is
// superseded (the new record wins; compaction reclaims the old bytes);
// one whose live record already holds this value is left as it is.
func (s *Store) Put(key string, val []byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	frame, err := encodeFrame(record{Type: "put", Key: key, Val: val})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return ErrClosed
	}
	if e, ok := s.index[key]; ok && e.n == len(frame) {
		old := make([]byte, e.n)
		if _, rerr := e.seg.read.ReadAt(old, e.off); rerr == nil && bytes.Equal(old, frame) {
			return nil
		}
	}
	active := s.segs[len(s.segs)-1]
	if active.size+int64(len(frame)) > s.opts.MaxSegmentBytes && active.size > 0 {
		rolled, rerr := s.rollLocked()
		if rerr != nil {
			return rerr
		}
		active = rolled
	}
	off := active.size
	if _, werr := s.w.Write(frame); werr != nil {
		return fmt.Errorf("store: append: %w", werr)
	}
	active.size += int64(len(frame))
	active.puts++
	s.link(active, key, off, len(frame))
	s.counters.Write()
	return nil
}

// rollLocked seals the active segment (writing its index sidecar) and
// starts the next one. Caller holds mu.
func (s *Store) rollLocked() (*segment, error) {
	active := s.segs[len(s.segs)-1]
	if err := s.w.Close(); err != nil {
		return nil, fmt.Errorf("store: seal %s: %w", active.path, err)
	}
	s.w = nil
	if err := s.writeIndexSidecarLocked(active); err != nil {
		fmt.Fprintf(s.opts.Log, "store: index sidecar for %s: %v (segment remains scannable)\n", active.path, err)
	}
	next, err := s.createSegment(active.id + 1)
	if err != nil {
		return nil, err
	}
	w, werr := os.OpenFile(next.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if werr != nil {
		return nil, fmt.Errorf("store: %w", werr)
	}
	s.segs = append(s.segs, next)
	s.w = w
	return next, nil
}

// Get returns the stored bytes for key. The returned slice is freshly
// read from disk and owned by the caller.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[key]
	if !ok {
		s.counters.Miss()
		return nil, false
	}
	buf := make([]byte, e.n)
	if _, err := e.seg.read.ReadAt(buf, e.off); err != nil {
		fmt.Fprintf(s.opts.Log, "store: read %s@%d: %v\n", e.seg.path, e.off, err)
		s.counters.Miss()
		return nil, false
	}
	rec, n, err := decodeFrame(buf)
	if err != nil || n != e.n || rec.Type != "put" || rec.Key != key {
		fmt.Fprintf(s.opts.Log, "store: record %s@%d failed verification (err=%v)\n", e.seg.path, e.off, err)
		s.counters.Miss()
		return nil, false
	}
	s.counters.Hit()
	return rec.Val, true
}

// Compact rewrites every live record, sorted by key, into one fresh
// segment (tmp-then-rename, with its index sidecar) and deletes the
// superseded segments. The store stays usable throughout; concurrent
// Gets simply wait out the rewrite.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return ErrClosed
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	id := s.segs[len(s.segs)-1].id + 1
	header, err := encodeFrame(record{Schema: Schema, Type: "header", Segment: id})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data := append([]byte(nil), header...)
	type pending struct {
		key string
		off int64
		n   int
	}
	rewritten := make([]pending, 0, len(keys))
	for _, k := range keys {
		e := s.index[k]
		buf := make([]byte, e.n)
		if _, rerr := e.seg.read.ReadAt(buf, e.off); rerr != nil {
			return fmt.Errorf("store: compact read %s@%d: %w", e.seg.path, e.off, rerr)
		}
		rewritten = append(rewritten, pending{key: k, off: int64(len(data)), n: e.n})
		data = append(data, buf...)
	}
	path := segmentPath(s.dir, id)
	tmp := path + ".tmp"
	if werr := writeFileSync(tmp, data); werr != nil {
		return fmt.Errorf("store: %w", werr)
	}
	if rerr := os.Rename(tmp, path); rerr != nil {
		return fmt.Errorf("store: %w", rerr)
	}
	read, ferr := os.Open(path)
	if ferr != nil {
		return fmt.Errorf("store: %w", ferr)
	}
	w, werr := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if werr != nil {
		read.Close() //mklint:allow errdrop — the open error is the failure being reported
		return fmt.Errorf("store: %w", werr)
	}

	// Swap: new index over the compacted segment, then drop the old files.
	old := s.segs
	if cerr := s.w.Close(); cerr != nil {
		fmt.Fprintf(s.opts.Log, "store: close superseded append handle: %v\n", cerr)
	}
	seg := &segment{id: id, path: path, read: read, size: int64(len(data)), live: len(rewritten), puts: len(rewritten)}
	s.index = make(map[string]entry, len(rewritten))
	for _, p := range rewritten {
		s.index[p.key] = entry{seg: seg, off: p.off, n: p.n}
	}
	s.segs = []*segment{seg}
	s.w = w
	s.superseded = 0
	if ierr := s.writeIndexSidecarLocked(seg); ierr != nil {
		fmt.Fprintf(s.opts.Log, "store: index sidecar for %s: %v (segment remains scannable)\n", path, ierr)
	}
	for _, o := range old {
		if cerr := o.read.Close(); cerr != nil {
			fmt.Fprintf(s.opts.Log, "store: close %s: %v\n", o.path, cerr)
		}
		if rerr := os.Remove(o.path); rerr != nil {
			fmt.Fprintf(s.opts.Log, "store: remove superseded %s: %v\n", o.path, rerr)
		}
		if rerr := os.Remove(indexPath(s.dir, o.id)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			fmt.Fprintf(s.opts.Log, "store: remove superseded %s: %v\n", indexPath(s.dir, o.id), rerr)
		}
	}
	fmt.Fprintf(s.opts.Log, "store: compacted %d segments into %s (%d live records, %d bytes)\n",
		len(old), filepath.Base(path), len(rewritten), len(data))
	return nil
}

// Close seals the store: index sidecars are written for every segment,
// handles are closed. Further operations return ErrClosed (Get reports
// a miss).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	var first error
	for _, seg := range s.segs {
		if err := s.writeIndexSidecarLocked(seg); err != nil && first == nil {
			first = err
		}
	}
	if err := s.w.Sync(); err != nil && first == nil {
		first = err
	}
	if err := s.w.Close(); err != nil && first == nil {
		first = err
	}
	s.w = nil
	s.closeFiles()
	return first
}

// closeFiles closes every read handle (Open failure path and Close).
func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.read != nil {
			if err := seg.read.Close(); err != nil {
				fmt.Fprintf(s.opts.Log, "store: close %s: %v\n", seg.path, err)
			}
			seg.read = nil
		}
	}
}

// Stats is a point-in-time store summary for /healthz and artifacts.
type Stats struct {
	metrics.StoreSnapshot
	Segments   int   `json:"segments"`
	Keys       int   `json:"keys"`
	Superseded int   `json:"superseded"`
	DiskBytes  int64 `json:"disk_bytes"`
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		StoreSnapshot: s.counters.Snapshot(),
		Segments:      len(s.segs),
		Keys:          len(s.index),
		Superseded:    s.superseded,
	}
	for _, seg := range s.segs {
		st.DiskBytes += seg.size
	}
	return st
}

// ---- frame encoding ----

var errPartialFrame = errors.New("partial frame")

// encodeFrame wraps rec's JSON in the length+CRC frame.
func encodeFrame(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// decodeFrame verifies and decodes the frame at the head of buf,
// returning the record and the frame's total length.
func decodeFrame(buf []byte) (record, int, error) {
	var rec record
	if len(buf) < frameHeader {
		return rec, 0, errPartialFrame
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	if n <= 0 || n > maxFrameBytes {
		return rec, 0, fmt.Errorf("implausible frame length %d", n)
	}
	if len(buf) < frameHeader+n {
		return rec, 0, errPartialFrame
	}
	payload := buf[frameHeader : frameHeader+n]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(buf[4:8]) {
		return rec, 0, errors.New("CRC mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, fmt.Errorf("decode record: %w", err)
	}
	return rec, frameHeader + n, nil
}

// scanEntry is one live record found by a scan.
type scanEntry struct {
	Key string `json:"k"`
	Off int64  `json:"o"`
	N   int    `json:"n"`
}

// scanFrames walks buf frame by frame, returning the put records and the
// length of the valid prefix. A torn or corrupt frame ends the scan (its
// offset is the truncation point); a header carrying a foreign schema is
// a hard error — that is a format we must not rewrite.
func scanFrames(buf []byte) ([]scanEntry, int64, error) {
	var ents []scanEntry
	off := 0
	for off < len(buf) {
		rec, n, err := decodeFrame(buf[off:])
		if err != nil {
			return ents, int64(off), nil
		}
		switch rec.Type {
		case "header":
			if rec.Schema != Schema {
				return nil, 0, fmt.Errorf("unsupported store schema %q (want %s)", rec.Schema, Schema)
			}
		case "put":
			ents = append(ents, scanEntry{Key: rec.Key, Off: int64(off), N: n})
		}
		off += n
	}
	return ents, int64(off), nil
}

// ---- index sidecars ----

// indexDoc is the NNNNNN.idx sidecar: the segment's live records sorted
// by key and its count of put records, live or superseded, valid only
// while the segment is exactly Size bytes.
type indexDoc struct {
	Schema  string      `json:"schema"`
	Segment int         `json:"segment"`
	Size    int64       `json:"size"`
	Puts    int         `json:"puts"`
	Entries []scanEntry `json:"entries"`
}

// loadIndexSidecar loads NNNNNN.idx when it matches the segment size.
func (s *Store) loadIndexSidecar(id int, size int64) (indexDoc, bool) {
	var doc indexDoc
	buf, err := os.ReadFile(indexPath(s.dir, id))
	if err != nil {
		return doc, false
	}
	if jerr := json.Unmarshal(buf, &doc); jerr != nil || doc.Schema != IndexSchema || doc.Segment != id || doc.Size != size {
		return doc, false
	}
	return doc, true
}

// writeIndexSidecarLocked writes seg's sorted key→offset sidecar via
// tmp-then-rename. Caller holds mu.
func (s *Store) writeIndexSidecarLocked(seg *segment) error {
	ents := make([]scanEntry, 0, seg.live)
	for k, e := range s.index {
		if e.seg == seg {
			ents = append(ents, scanEntry{Key: k, Off: e.off, N: e.n})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Key < ents[j].Key })
	buf, err := json.Marshal(indexDoc{Schema: IndexSchema, Segment: seg.id, Size: seg.size, Puts: seg.puts, Entries: ents})
	if err != nil {
		return err
	}
	path := indexPath(s.dir, seg.id)
	tmp := path + ".tmp"
	if werr := writeFileSync(tmp, buf); werr != nil {
		return werr
	}
	return os.Rename(tmp, path)
}
