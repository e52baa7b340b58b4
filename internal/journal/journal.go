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
// A journal directory holds numbered segment files — a Segments stream,
// the storage the tsdb's tiers run on too — and at most one snapshot:
//
//	wal-00000000.seg   records, appended in order
//	wal-00000001.seg   ...
//	snap-00000002.snap one framed record holding the snapshot payload
//	wal-00000002.seg   records since the snapshot
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
// misparsed record; later segments still replay. Appends after a reopen
// always go to a fresh segment, so a torn tail is never appended to.
//
// Snapshots are written to a temporary file and renamed into place, so
// a crash during snapshotting leaves either the old or the new
// snapshot, never a half-written one. Once the rename is durable all
// older segments and snapshots are pruned.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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

	segPrefix  = "wal"
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

// Options tunes a Segments stream: the journal's and the tsdb's.
type Options struct {
	// SegmentBytes is the rotation threshold: a write that would grow a
	// non-empty segment past it starts a new segment first (default 1 MiB).
	SegmentBytes int
	// NoSync skips every fsync: of appends, snapshots and directories.
	// Only for tests, simulations and benchmarks, whose crash model is
	// process death, not power loss — a production daemon must not
	// acknowledge what its disk could still lose.
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
	dir string

	mu     sync.Mutex
	segs   *Segments
	closed bool
	err    error  // the first failed segment write: the tail may be torn
	buf    []byte // scratch for framing appends

	snapshot []byte   // recovered snapshot payload (nil if none)
	records  [][]byte // recovered tail records, oldest first
}

// Open opens (or creates) the journal directory and replays the latest
// snapshot plus every record after it, tolerating a torn tail. The first
// append goes to a fresh segment (a torn tail is never appended to). The
// recovered state is available through Recovered.
func Open(dir string, opts Options) (*Journal, error) {
	segs, snapshot, records, err := replay(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Journal{dir: dir, segs: segs, snapshot: snapshot, records: records}, nil
}

// replay lists dir's segments and reads the latest snapshot and every
// intact record after it.
func replay(dir string, opts Options) (segs *Segments, snapshot []byte, records [][]byte, err error) {
	if segs, err = OpenSegments(dir, segPrefix, opts); err != nil {
		return nil, nil, nil, err
	}
	snaps, err := list(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, nil, nil, err
	}
	// Latest snapshot wins; segments older than it were pruned when it
	// was taken (or are about to be ignored).
	var snapSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1].seq
		path := snapPath(dir, snapSeq)
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("journal: %w", err)
		}
		// Snapshots are written atomically (temp file + rename), so
		// anything but one intact frame is bit rot, not a crash artifact.
		// Refuse to guess.
		payloads, _ := Frames(b)
		if len(payloads) != 1 {
			return nil, nil, nil, fmt.Errorf("journal: snapshot %s corrupt: %w", path, ErrTornTail)
		}
		snapshot = payloads[0]
		// The records after snapshot n live in wal-n.seg and later.
		segs.next = max(segs.next, snapSeq)
	}
	err = segs.Replay(snapSeq, func(_ uint64, _ int64, _ int, p []byte) error {
		records = append(records, slices.Clone(p))
		return nil
	})
	return segs, snapshot, records, err
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

// Recovered returns the state replayed at Open: the latest snapshot
// payload (nil if none) and every intact record after it, oldest first.
func (j *Journal) Recovered() (snapshot []byte, records [][]byte) {
	return j.snapshot, j.records
}

// Append frames the payload, writes it to the current segment and —
// unless Options.NoSync — fsyncs before returning: when Append returns
// nil the record survives a crash.
func (j *Journal) Append(payload []byte) error { return j.AppendBatch([][]byte{payload}) }

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
// of the batch survives a crash. A failed write or fsync may have left a
// torn frame at the tail, and replay stops there: from then on every
// append and snapshot returns that first error, so nothing acknowledged
// is ever written behind the tear.
func (j *Journal) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes", len(p))
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return err
	}
	buf := j.buf[:0]
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	j.buf = buf
	if _, _, err := j.segs.Write(buf); err != nil {
		return j.failLocked(err)
	}
	if err := j.segs.Sync(); err != nil {
		return j.failLocked(err)
	}
	return nil
}

// usableLocked is the error every append and snapshot returns once the
// journal is closed or a segment write has failed. Callers hold j.mu.
func (j *Journal) usableLocked() error {
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.err
}

// failLocked records the first failed segment write and returns it.
// Callers hold j.mu.
func (j *Journal) failLocked(err error) error {
	if j.err == nil {
		j.err = fmt.Errorf("journal: %w", err)
	}
	return j.err
}

// Snapshot persists a full-state checkpoint and prunes the history it
// supersedes: the state is framed into snap-<n>.snap (written to a
// temporary file, fsynced, renamed, the directory fsynced), where n is
// the next segment's number, appends continue in wal-<n>.seg, and all
// older segments and snapshots are deleted. Recovery then replays the
// snapshot plus the records appended after it.
func (j *Journal) Snapshot(state []byte) error {
	if len(state) > MaxRecordBytes {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds MaxRecordBytes", len(state))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return err
	}
	seq := j.segs.next
	tmp, err := os.CreateTemp(j.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	_, err = tmp.Write(AppendFrame(nil, state))
	if err == nil && !j.segs.opts.NoSync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), snapPath(j.dir, seq))
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	// The snapshot is in place: an append behind it would be superseded.
	if err := j.segs.rotate(); err != nil {
		return j.failLocked(err)
	}
	// The rename must be durable before the history it supersedes goes.
	if !j.segs.opts.NoSync {
		if err := syncDir(j.dir); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	// Prune superseded history: every live segment is older than seq.
	// Failures here are ignored: stale files waste space but cannot
	// corrupt recovery (the latest snapshot wins).
	for _, g := range slices.Clone(j.segs.live) {
		j.segs.Remove(g.seq)
	}
	if snaps, err := list(j.dir, snapPrefix, snapSuffix); err == nil {
		for _, g := range snaps {
			if g.seq < seq {
				os.Remove(snapPath(j.dir, g.seq))
			}
		}
	}
	return nil
}

// Close closes the journal's segments. Every append was already fsynced
// unless NoSync.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.segs.Close()
}
