// Package journal implements the coordinator's write-ahead action log:
// an append-only, CRC-framed, fsync-on-commit record log with segment
// rotation, periodic snapshots and a torn-tail-tolerant reader.
//
// AutoGlobe's pitch is a *self*-administering landscape, yet a
// controller that forgets its in-flight actions on a crash is the least
// robust component of the whole system — exactly the failure class the
// fuzzy controller heals for everyone else. The journal makes the
// coordinator's side-effecting state durable: every dispatched action,
// every ack and every liveness transition is framed, checksummed and
// fsynced before the next step proceeds, so a restarted coordinator can
// replay the tail and re-issue exactly the actions whose fate is
// unknown (the agents' idempotency caches absorb the re-delivery of
// actions that did complete). Autonomic-management peers treat durable
// management metadata as a first-class requirement (H2O keeps its
// autonomic metadata replicated and restartable); this package is the
// single-node equivalent.
//
// # On-disk format
//
// A journal directory holds numbered segment files and at most one
// snapshot:
//
//	wal-00000001.seg   records, appended in order
//	wal-00000002.seg   ...
//	snap-00000003.snap one framed record holding the snapshot payload
//	wal-00000003.seg   records since the snapshot
//
// Every record — in segments and snapshots alike — is framed as
//
//	+-------+----------------+-------------+------------+
//	| magic | length (LE u32)| crc32c (LE) |  payload   |
//	| 1 B   | 4 B            | 4 B         |  length B  |
//	+-------+----------------+-------------+------------+
//
// with the CRC (Castagnoli) taken over the payload bytes. A reader
// stops cleanly at the first frame that is incomplete, oversized or
// fails its checksum: a crash mid-append leaves a torn tail, never a
// misparsed record. Appends after a reopen always go to a fresh
// segment, so a torn tail is never appended to.
//
// Snapshots are written to a temporary file and renamed into place, so
// a crash during snapshotting leaves either the old or the new
// snapshot, never a half-written one. After a successful snapshot all
// older segments and snapshots are pruned.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	// recordMagic is the first byte of every frame. A reader positioned
	// on anything else is looking at a torn tail (or garbage) and stops.
	recordMagic = 0xA9
	// headerSize is the fixed frame header: magic + length + crc.
	headerSize = 1 + 4 + 4
	// MaxRecordBytes bounds a single record. A length field above the
	// bound is treated as corruption, not as an instruction to allocate.
	MaxRecordBytes = 16 << 20

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// crcTable is the Castagnoli polynomial, the usual choice for storage
// checksums (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail reports that decoding stopped at an incomplete or corrupt
// frame — the expected end state of a log whose writer died mid-append.
var ErrTornTail = errors.New("journal: torn or corrupt record tail")

// AppendFrame appends one framed record to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	hdr[0] = recordMagic
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrame parses the first frame of b, returning the payload and
// the number of bytes consumed. Any incomplete, oversized or
// checksum-failing frame returns ErrTornTail — the caller stops
// cleanly there. DecodeFrame never panics, whatever the input.
func DecodeFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < headerSize {
		return nil, 0, ErrTornTail
	}
	if b[0] != recordMagic {
		return nil, 0, ErrTornTail
	}
	length := binary.LittleEndian.Uint32(b[1:5])
	if length > MaxRecordBytes {
		return nil, 0, ErrTornTail
	}
	end := headerSize + int(length)
	if end > len(b) || end < headerSize { // second clause guards overflow
		return nil, 0, ErrTornTail
	}
	payload = b[headerSize:end]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[5:9]) {
		return nil, 0, ErrTornTail
	}
	return payload, end, nil
}

// Frames decodes every intact frame of a segment image, stopping
// cleanly at the torn tail. It returns the payloads and, for each, the
// byte offset just past its frame — the record boundaries a
// crash-point sweep truncates at.
func Frames(b []byte) (payloads [][]byte, boundaries []int) {
	off := 0
	for {
		p, n, err := DecodeFrame(b[off:])
		if err != nil {
			return payloads, boundaries
		}
		payloads = append(payloads, p)
		off += n
		boundaries = append(boundaries, off)
	}
}

// Options tunes a journal.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would grow
	// the current segment past it starts a new segment first
	// (default 1 MiB).
	SegmentBytes int
	// NoSync skips the fsync after each append and snapshot. Only for
	// tests and benchmarks — a production coordinator must not
	// acknowledge actions its journal could still lose.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// Journal is an append-only record log in one directory. It is safe for
// concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    uint64 // number of the segment f writes to
	size   int
	closed bool
	buf    []byte // scratch for framing batch appends

	snapshot []byte   // recovered snapshot payload (nil if none)
	records  [][]byte // recovered tail records, oldest first
}

// Open opens (or creates) the journal directory, replays the latest
// snapshot plus every record after it — tolerating a torn tail — and
// prepares a fresh segment for appends (a torn tail is never appended
// to). The recovered state is available through Recovered.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, snaps, maxSeq, err := scan(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opts: opts}

	// Latest snapshot wins; segments older than it were pruned when it
	// was taken (or are about to be ignored).
	var snapSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		b, err := os.ReadFile(j.snapPath(snapSeq))
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		payload, _, derr := DecodeFrame(b)
		if derr != nil {
			// Snapshots are written atomically (temp file + rename), so a
			// failing checksum is bit rot, not a crash artifact. Refuse to
			// guess.
			return nil, fmt.Errorf("journal: snapshot %s corrupt: %w", j.snapPath(snapSeq), derr)
		}
		j.snapshot = append([]byte(nil), payload...)
	}

	// Replay segments at or after the snapshot, oldest first. A torn
	// record ends the replay of its segment — the writer died
	// mid-append and the partial record was never acknowledged — but
	// later segments still replay: appends after a reopen always go to
	// a fresh segment, so everything beyond the tear lives in files
	// written by later, healthy incarnations.
	for _, seq := range segs {
		if seq < snapSeq {
			continue
		}
		b, err := os.ReadFile(j.segPath(seq))
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		payloads, _ := Frames(b)
		for _, p := range payloads {
			j.records = append(j.records, append([]byte(nil), p...))
		}
	}

	// Fresh segment for this incarnation's appends.
	j.seq = maxSeq + 1
	f, err := os.OpenFile(j.segPath(j.seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return j, nil
}

// Replay reads a journal directory WITHOUT opening it for appends: the
// latest snapshot payload (nil if none) plus every intact record after
// it, oldest first, tolerating a torn tail exactly like Open. Nothing
// in the directory is created, renamed or pruned, so a standby
// coordinator can warm-replay a live leader's journal while the leader
// keeps appending — the reader sees a prefix-durable view, never a
// misparsed record. A missing directory replays as empty.
func Replay(dir string) (snapshot []byte, records [][]byte, err error) {
	segs, snaps, _, err := scan(dir)
	if err != nil {
		if os.IsNotExist(errors.Unwrap(err)) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	var snapSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		path := filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, snapSeq, snapSuffix))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		payload, _, derr := DecodeFrame(b)
		if derr != nil {
			return nil, nil, fmt.Errorf("journal: snapshot %s corrupt: %w", path, derr)
		}
		snapshot = append([]byte(nil), payload...)
	}
	for _, seq := range segs {
		if seq < snapSeq {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)))
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		payloads, _ := Frames(b)
		for _, p := range payloads {
			records = append(records, append([]byte(nil), p...))
		}
	}
	return snapshot, records, nil
}

// scan lists the segment and snapshot sequence numbers in dir, sorted
// ascending, plus the overall maximum.
func scan(dir string) (segs, snaps []uint64, maxSeq uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
		return n, err == nil
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parse(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, n)
			maxSeq = max(maxSeq, n)
		} else if n, ok := parse(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
			maxSeq = max(maxSeq, n)
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	return segs, snaps, maxSeq, nil
}

func (j *Journal) segPath(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

func (j *Journal) snapPath(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Recovered returns the state replayed at Open: the latest snapshot
// payload (nil if none) and every intact record after it, oldest first.
func (j *Journal) Recovered() (snapshot []byte, records [][]byte) {
	return j.snapshot, j.records
}

// Append frames the payload, writes it to the current segment and —
// unless Options.NoSync — fsyncs before returning: when Append returns
// nil the record survives a crash.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if j.size > 0 && j.size+headerSize+len(payload) > j.opts.SegmentBytes {
		if err := j.rotateLocked(j.seq + 1); err != nil {
			return err
		}
	}
	frame := AppendFrame(nil, payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size += len(frame)
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// AppendBatch frames every payload and commits them with ONE write and
// ONE fsync: N records become durable for the price of a single disk
// round trip. The records land in the log in
// slice order, each in its own frame, so a reader (and the crash-point
// sweep) sees them exactly as if they had been appended one by one. A
// crash mid-write can tear the tail anywhere inside the batch; the torn
// frame and everything after it vanish, but every frame before the tear
// replays — a batch is not atomic, it is a prefix-durable burst.
//
// An empty batch is a no-op. When AppendBatch returns nil every record
// of the batch survives a crash.
func (j *Journal) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	total := 0
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes", len(p))
		}
		total += headerSize + len(p)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if j.size > 0 && j.size+total > j.opts.SegmentBytes {
		if err := j.rotateLocked(j.seq + 1); err != nil {
			return err
		}
	}
	buf := j.buf[:0]
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	j.buf = buf
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size += len(buf)
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// rotateLocked closes the current segment and starts segment seq.
// Callers hold j.mu.
func (j *Journal) rotateLocked(seq uint64) error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(j.segPath(seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f, j.seq, j.size = f, seq, 0
	return nil
}

// Snapshot persists a full-state checkpoint and prunes the history it
// supersedes: the state is framed into snap-<n>.snap (written to a
// temporary file, fsynced, renamed), appends continue in wal-<n>.seg,
// and all older segments and snapshots are deleted. Recovery then
// replays the snapshot plus the records appended after it.
func (j *Journal) Snapshot(state []byte) error {
	if len(state) > MaxRecordBytes {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds MaxRecordBytes", len(state))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	seq := j.seq + 1
	tmp, err := os.CreateTemp(j.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	frame := AppendFrame(nil, state)
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if !j.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("journal: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.snapPath(seq)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.rotateLocked(seq); err != nil {
		return err
	}
	// Prune superseded history. Failures here are ignored: stale files
	// waste space but cannot corrupt recovery (the latest snapshot wins).
	segs, snaps, _, err := scan(j.dir)
	if err == nil {
		for _, n := range segs {
			if n < seq {
				os.Remove(j.segPath(n))
			}
		}
		for _, n := range snaps {
			if n < seq {
				os.Remove(j.snapPath(n))
			}
		}
	}
	return nil
}

// Close flushes and closes the current segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			j.f.Close()
			return fmt.Errorf("journal: %w", err)
		}
	}
	return j.f.Close()
}
