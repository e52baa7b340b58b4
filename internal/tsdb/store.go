package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"autoglobe/internal/journal"
)

// Options tunes a Store's segments: they are the journal's (see
// journal.Options).
type Options = journal.Options

// The store's two segment streams, indexing segs and tierPrefix: the
// minute stream of rows and sealed blocks, and the dictionary stream of
// entity names and retention cuts.
const (
	minuteTier = iota
	dictTier
)

var tierPrefix = [2]string{"min", "dict"}

// blockRef indexes one sealed minute block: its frame on disk, or in a
// memory store the block itself. It is 32 bytes, one per seal for the
// store's life: the frame's length follows from the entity's id (see
// sealFrameLen), and a segment number and an offset within a segment
// each fit 32 bits (see commitMinutes).
type blockRef struct {
	raw   *[BlockSamples]Sample // a memory store's block; nil on disk
	start int                   // first sample minute
	end   int                   // last sample minute
	seq   uint32                // minute-tier segment number
	off   uint32                // frame start offset within the segment file
}

// sealFrameLen is the framed length of a sealed block of entity id: the
// journal's 9-byte frame header, kind and tier, the id and count
// varints, the samples.
func sealFrameLen(id uint64) int {
	var v [binary.MaxVarintLen64]byte
	return frameHeaderBytes + 2 + binary.PutUvarint(v[:], id) + binary.PutUvarint(v[:], BlockSamples) + BlockSamples*sampleBytes
}

// errIndexRange reports a minute-tier frame the 32-bit block index
// cannot address: a segment past 4 GiB, or past 2^32 segments.
var errIndexRange = errors.New("tsdb: minute-tier frame beyond the block index's 32-bit segment or offset")

// entState is the in-memory state of one entity: its raw tail — the
// newest BlockSamples samples — and the index of its sealed blocks.
type entState struct {
	id   uint64
	name string

	// tail holds the newest BlockSamples samples, inline. Every block is
	// exactly BlockSamples long and so starts at slot 0: tail[:n] is the
	// open block, the samples not yet sealed, whose durable copies are
	// row cells; tail[n:] is the part of the newest sealed block,
	// blocks[len(blocks)-1], that the open block has not overwritten
	// yet. The commit that follows the 64th open sample seals the block
	// by writing its frame and setting n to 0: a seal copies nothing.
	// Replay writes each seal frame's samples here. Every watchTime read
	// and Latest find what they need in the tail (see inTail).
	tail    [BlockSamples]Sample
	n       int
	cut     int // minute of the newest sealed sample overwritten, tail[n-1] before its append
	last    int // last appended minute (monotonicity guard)
	hasLast bool

	blocks []blockRef // sealed minute blocks, chronological
}

// Store is a segmented, append-only, disk-backed time-series store.
// Writes are buffered in memory and made durable by Commit — the
// archive calls it once per observed minute, so "acked" means "the
// minute closed". A store has one owner and no lock: the goroutine that
// appends, commits, compacts and reads it, the archive's owner. No
// method is safe for concurrent use.
//
// A store opened with no directory, Open("", opts), is a memory store:
// it keeps every sealed block raw and writes nothing, through the same
// append, commit, read and compaction code. What tells the two apart is
// st.dir == "" in six places: Open skips the directory and its replay,
// AppendTo stages no dictionary record and no row cell, a seal keeps the
// block raw (commitMinutes), writeTier and pruneMinuteSegments do
// nothing, and Instrument attaches nothing.
type Store struct {
	dir  string
	opts Options

	ids  map[string]uint64
	ents []*entState

	segs   [2]*journal.Segments // the minute and dictionary streams; none in a memory store
	segMax map[uint64]int       // minute segment → max sample minute written

	cut int // the retention cut: every sample below it is gone (see CompactBefore)

	row         []byte   // open row payload: the cells appended since the last row frame
	rowBase     int      // minute the open row's cells are relative to
	pending     []byte   // framed minute-tier chunk: closed rows, then the seals Commit adds
	dictPending []byte   // framed dict records for entities seen since last Commit
	full        []uint64 // entities whose open block is full and awaits its seal
	stagedMax   int      // newest minute staged since the last Commit
	unsynced    bool     // flushRow wrote rows the next Commit must fsync
	recBuf      []byte   // record payload scratch
	frameBuf    []byte   // a sealed block's frame read from disk
	blockBuf    []Sample // ...and its samples (see loadBlock)

	closed bool
	err    error // first failed write; sticky until the directory is reopened

	m *storeMetrics
}

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("tsdb: store is closed")

// rowFrameBytes closes the open row into a frame of its own before the
// commit: a caller staging hours of a large fleet between commits must
// stay far below journal.MaxRecordBytes. It also bounds a commit's
// chunk of seal frames (see commitMinutes).
const rowFrameBytes = 256 << 10

// sealFrameBytes bounds one framed sealed block: the journal's 9-byte
// frame header, kind and tier, id and count, the samples. Taking both
// varints at their maximum makes it a bound for any id, so a chunk of
// seals is sized from it once.
const sealFrameBytes = frameHeaderBytes + 2 + 2*binary.MaxVarintLen64 + BlockSamples*sampleBytes

// frameHeaderBytes is the journal's frame header: magic, length, CRC.
const frameHeaderBytes = 9

// writable gates every mutating call: a closed store refuses them, and
// so does one whose last write failed — how much of that write reached
// the disk is unknown, and only a replay of the directory can tell.
func (st *Store) writable() error {
	if st.closed {
		return ErrClosed
	}
	return st.err
}

// Open opens (or creates) a store directory, replaying every segment:
// the dictionary stream — entity names and retention cuts — then the
// minute stream, skipping the minutes below the highest cut. Replay
// tolerates a torn final frame in every stream — the expected end state
// of a crashed writer.
// Appends after Open go to fresh segments. An empty dir opens a memory
// store (see Store), which cannot fail.
func Open(dir string, opts Options) (*Store, error) {
	st := &Store{dir: dir, opts: opts, ids: make(map[string]uint64), segMax: make(map[uint64]int)}
	if dir == "" {
		return st, nil
	}
	for tier := range st.segs {
		var err error
		if st.segs[tier], err = journal.OpenSegments(dir, tierPrefix[tier], opts); err != nil {
			return nil, err
		}
	}
	if err := st.replay(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *Store) replay() error {
	if err := st.replayDict(); err != nil {
		return err
	}
	return st.replayMinutes()
}

// replayDict registers the entities in id order and keeps the highest
// retention cut.
func (st *Store) replayDict() error {
	return st.segs[dictTier].Replay(0, func(_ uint64, _ int64, _ int, p []byte) error {
		r, err := decodeRecord(p, nil)
		if err != nil {
			return err
		}
		switch {
		case r.kind == kMark:
			st.cut = max(st.cut, r.mark)
		case r.kind != kDict:
			return fmt.Errorf("record kind %d in dict stream: %w", r.kind, ErrBadRecord)
		case r.id != uint64(len(st.ents)):
			return fmt.Errorf("dict id %d out of order: %w", r.id, ErrBadRecord)
		default:
			st.register(r.name)
		}
		return nil
	})
}

// replayMinutes rebuilds the sealed-block index and each entity's raw
// tail. A row's cells (and the samples of a tail record, the one-entity
// row of a store written before the row record) fill open blocks,
// skipping the minutes below the retention cut; a sealed block
// (exactly BlockSamples samples) becomes an index entry, is written into
// the tail and empties the entity's open block — its samples are the
// cells replayed in front of it, by the batch order block.go documents.
// A block still full when the stream ends is the orphan of a batch torn
// between its rows and its seals: it goes on the full list and the next
// Commit seals it.
func (st *Store) replayMinutes() error {
	cut := st.cut
	var scratch []Sample
	newest := 0 // newest minute of the frame being replayed
	touch := func(id uint64, minute int) (*entState, error) {
		if id >= uint64(len(st.ents)) {
			return nil, fmt.Errorf("sample for unknown entity %d: %w", id, ErrBadRecord)
		}
		e := st.ents[id]
		newest = max(newest, minute)
		if !e.hasLast || minute > e.last {
			e.last, e.hasLast = minute, true
		}
		return e, nil
	}
	cell := func(id uint64, s Sample) error {
		e, err := touch(id, s.Minute)
		if err != nil || s.Minute < cut {
			return err
		}
		if e.n == BlockSamples {
			return fmt.Errorf("entity %d open-block overflow: %w", id, ErrBadRecord)
		}
		e.put(s)
		return nil
	}
	frame := func(seq uint64, off int64, n int, p []byte) error {
		if len(p) > 0 && p[0] == kRow {
			return decodeRow(p, cell)
		}
		r, err := decodeRecord(p, scratch)
		if err != nil {
			return err
		}
		if r.kind != kBlock {
			return fmt.Errorf("record kind %d in minute stream: %w", r.kind, ErrBadRecord)
		}
		scratch = r.samples[:0]
		if len(r.samples) != BlockSamples {
			for _, s := range r.samples {
				if err := cell(r.id, s); err != nil {
					return err
				}
			}
			return nil
		}
		end := r.samples[BlockSamples-1].Minute
		e, err := touch(r.id, end)
		if err != nil {
			return err
		}
		e.tail, e.n = [BlockSamples]Sample(r.samples), 0
		if end >= cut {
			if n != sealFrameLen(r.id) {
				return fmt.Errorf("sealed block of entity %d framed in %d bytes: %w", r.id, n, ErrBadRecord)
			}
			if seq > math.MaxUint32 || off > math.MaxUint32 {
				return errIndexRange
			}
			e.blocks = append(e.blocks, blockRef{seq: uint32(seq), off: uint32(off), start: r.samples[0].Minute, end: end})
		}
		return nil
	}
	err := st.segs[minuteTier].Replay(0, func(seq uint64, off int64, n int, p []byte) error {
		newest = 0
		err := frame(seq, off, n, p)
		if newest > st.segMax[seq] {
			st.segMax[seq] = newest
		}
		return err
	})
	for _, e := range st.ents {
		if e.n == BlockSamples {
			st.full = append(st.full, e.id)
		}
	}
	return err
}

// register creates the in-memory state for a new entity; AppendTo
// stages its dict record.
func (st *Store) register(name string) *entState {
	e := &entState{id: uint64(len(st.ents)), name: name}
	st.ids[name] = e.id
	st.ents = append(st.ents, e)
	return e
}

// put appends s to the open block, over the oldest sample of the newest
// sealed block still in the tail.
func (e *entState) put(s Sample) {
	e.cut = e.tail[e.n].Minute
	e.tail[e.n] = s
	e.n++
}

// inTail reports whether tail[e.n:] holds every sample at or after
// minute from of the newest sealed block: all of the block until the
// first append overwrites slot 0, then what follows the last minute
// overwritten. A repeated minute may straddle the cut, so a read that
// starts at it needs the block from disk.
func (e *entState) inTail(from int) bool { return e.n == 0 || from > e.cut }

// Handle is a resolved handle on one entity, for appends and for the
// reads Latest and Range. The zero value is unresolved and
// reads as empty: the first AppendTo that passes the store-level checks
// resolves it (registering the entity if new) and later appends skip the
// name lookup. Entities are never deleted, so a handle is good for the
// life of its store.
type Handle struct{ e *entState }

// Append is AppendTo without a cached handle.
func (st *Store) Append(entity string, s Sample) error { return st.AppendTo(new(Handle), entity, s) }

// AppendTo buffers one sample for entity through its handle. Samples
// per entity must arrive with non-decreasing minutes (the archive's
// contract) and at or above the retention cut; a sample refused by a
// closed or failed store or the cut does not
// register the entity. The sample is acknowledged — guaranteed to
// survive a crash — once a subsequent Commit returns, never later and
// sometimes earlier: an entity's full block is sealed before its next
// sample is taken, so an append that meets one commits everything
// staged so far first (and returns that commit's error). The sample is
// encoded into the open row here, while it is at hand; the
// steady-state path writes into warm buffers and allocates nothing.
func (st *Store) AppendTo(h *Handle, entity string, s Sample) error {
	if err := st.writable(); err != nil {
		return err
	}
	if s.Minute < st.cut {
		return fmt.Errorf("tsdb: sample at minute %d below the retention cut %d", s.Minute, st.cut)
	}
	e, fresh := h.e, false
	if e == nil {
		if id, ok := st.ids[entity]; ok {
			e = st.ents[id]
		} else {
			e, fresh = st.register(entity), true
		}
		h.e = e
	}
	if e.hasLast && s.Minute < e.last {
		return fmt.Errorf("tsdb: non-monotone minute %d for %q (last %d)", s.Minute, entity, e.last)
	}
	if e.n == BlockSamples {
		if err := st.Commit(); err != nil {
			return err
		}
	}
	e.put(s)
	e.last, e.hasLast = s.Minute, true
	if e.n == BlockSamples {
		st.full = append(st.full, e.id)
	}
	if st.dir == "" {
		return nil // a memory store: nothing will read a record
	}
	if fresh {
		st.recBuf = appendDictRecord(st.recBuf[:0], e.id, entity)
		st.dictPending = journal.AppendFrame(st.dictPending, st.recBuf)
	}
	if len(st.row) == 0 {
		st.rowBase = s.Minute
		st.row = appendRowHeader(st.row, s.Minute)
	}
	st.row = appendRowCell(st.row, st.rowBase, e.id, s)
	st.stagedMax = max(st.stagedMax, s.Minute)
	if len(st.row) >= rowFrameBytes {
		return st.flushRow()
	}
	return nil
}

// closeRow frames the open row, if any, onto the pending batch. A row
// ends below rowFrameBytes plus one cell, so growing pending to fit
// keeps its capacity within rowFrameBytes + sealFrameBytes.
func (st *Store) closeRow() {
	if len(st.row) == 0 {
		return
	}
	if need := len(st.pending) + frameHeaderBytes + len(st.row); need > cap(st.pending) {
		c := max(need, min(2*cap(st.pending), rowFrameBytes+sealFrameBytes))
		st.pending = append(make([]byte, 0, c), st.pending...)
	}
	st.pending = journal.AppendFrame(st.pending, st.row)
	st.row = st.row[:0]
	st.m.addBlocks(kindRow, 1)
}

// flushRow writes a full open row at once instead of queueing it for
// Commit, so the batch buffer holds one row however many entities a
// minute has. The dictionary records the row may name go first, fsynced
// — an entity must be durable before any data that references it can
// be; the row itself waits for Commit's fsync (unsynced).
func (st *Store) flushRow() error {
	st.closeRow()
	if err := st.writeDict(); err != nil {
		return err
	}
	seq, _, err := st.write(minuteTier, st.pending)
	if err != nil {
		return err
	}
	st.segMax[seq] = max(st.segMax[seq], st.stagedMax)
	st.pending, st.unsynced = st.pending[:0], true
	return nil
}

// writeDict writes the dictionary records framed since the last write,
// if any. A burst of new entities — a fleet's first minute — grows the
// buffer to the burst; past one seal frame it is dropped once written,
// so the store keeps what a few new entities a minute need, not the
// largest burst it ever saw.
func (st *Store) writeDict() error {
	if len(st.dictPending) == 0 {
		return nil
	}
	if _, _, err := st.writeTier(dictTier, st.dictPending); err != nil {
		return err
	}
	if cap(st.dictPending) > sealFrameBytes {
		st.dictPending = nil
	} else {
		st.dictPending = st.dictPending[:0]
	}
	return nil
}

// Commit makes every buffered sample durable in one batch (plus one
// fsync unless Options.NoSync): the row of samples appended since the
// last commit (of a minute whose rows pass rowFrameBytes, what flushRow
// has not written yet), then a sealed block for every entity whose 64th
// open sample is among them — only those entities are touched. The batch
// goes out in one segment write or, when many entities seal at once,
// several, each at most rowFrameBytes plus one seal frame; a write that
// rotates the segment fsyncs the one it closes. Journal-style prefix
// durability applies — a crash mid-commit preserves an intact prefix of
// the batch and the torn tail is dropped on replay; a prefix that holds
// the rows but not every seal reopens with those blocks full and
// unsealed, and the next commit seals them. A commit with nothing
// buffered is a no-op. A commit whose write fails acknowledges nothing
// and leaves the store refusing appends, commits and compactions with
// that error until the directory is reopened: replay rebuilds from what
// really reached the disk.
func (st *Store) Commit() error {
	if err := st.writable(); err != nil {
		return err
	}
	st.closeRow()
	if len(st.dictPending) == 0 && len(st.pending) == 0 && len(st.full) == 0 && !st.unsynced {
		return nil
	}
	t0 := st.m.start()
	// New entities become durable before any data referencing them.
	if err := st.writeDict(); err != nil {
		return err
	}
	if len(st.pending) > 0 || len(st.full) > 0 {
		if err := st.commitMinutes(); err != nil {
			return err
		}
	} else if err := st.sync(minuteTier); err != nil { // rows flushRow wrote, nothing after them
		return err
	}
	st.unsynced = false
	st.m.committed(t0)
	return nil
}

// commitMinutes writes the minute-tier batch — the rows already framed
// in pending, then the seals of the full list in id order — in chunks,
// and fsyncs once after the last. Seal frames join a chunk while it is
// below rowFrameBytes, so the batch buffer holds one chunk, however many
// entities seal in the same minute. A crash between two chunks leaves a
// batch torn at a frame boundary, which replay already recovers.
func (st *Store) commitMinutes() error {
	slices.Sort(st.full)   // canonical batch order regardless of append interleaving
	newest := st.stagedMax // the rows ride in the first chunk
	for i := 0; ; {
		j := st.frameSeals(i)
		seq, base, err := st.write(minuteTier, st.pending)
		if err == nil && (seq > math.MaxUint32 || base+int64(len(st.pending)) > math.MaxUint32) {
			err = st.fail(minuteTier, errIndexRange)
		}
		if err != nil {
			st.unindex(j)
			return err
		}
		for _, id := range st.full[i:j] {
			e := st.ents[id]
			ref := &e.blocks[len(e.blocks)-1]
			ref.seq, ref.off = uint32(seq), uint32(base)+ref.off
			newest = max(newest, ref.end) // an orphan sealed after a reopen has no row in this batch
		}
		if newest > st.segMax[seq] {
			st.segMax[seq] = newest
		}
		st.pending, newest, i = st.pending[:0], 0, j
		if i == len(st.full) {
			break
		}
	}
	if err := st.sync(minuteTier); err != nil {
		st.unindex(len(st.full))
		return err
	}
	for _, id := range st.full {
		st.ents[id].n = 0 // the tail is the sealed block now
	}
	st.m.addBlocks(kindSealed, len(st.full))
	st.full, st.stagedMax = st.full[:0], 0
	return nil
}

// frameSeals indexes the seals of full[i:] that join the chunk being
// built and returns where the run ends. A memory store keeps every block
// raw in one run. A disk store frames them onto pending — the frame's
// offset is relative to the chunk until its write returns — while the
// chunk is below rowFrameBytes, at least one a chunk. Pending grows at
// most once per chunk, for the frames it takes, and its capacity stays
// within rowFrameBytes + sealFrameBytes: the rows it starts with are
// one row frame, less than rowFrameBytes plus a cell (see flushRow).
func (st *Store) frameSeals(i int) int {
	n := len(st.full) - i
	if st.dir != "" {
		if len(st.pending) >= rowFrameBytes {
			return i // the rows are a chunk of their own
		}
		n = min(n, max(1, (rowFrameBytes-len(st.pending))/sealFrameBytes))
		if need := len(st.pending) + n*sealFrameBytes; need > cap(st.pending) {
			// Double, as append would for bursts that grow minute by
			// minute, but never past the bound: need is within it.
			c := min(max(need, 2*cap(st.pending)), rowFrameBytes+sealFrameBytes)
			st.pending = append(make([]byte, 0, c), st.pending...)
		}
	}
	for _, id := range st.full[i : i+n] {
		e := st.ents[id]
		ref := blockRef{start: e.tail[0].Minute, end: e.tail[BlockSamples-1].Minute}
		if st.dir == "" {
			ref.raw = new([BlockSamples]Sample)
			*ref.raw = e.tail
		} else {
			st.recBuf = appendBlockRecord(st.recBuf[:0], id, e.tail[:])
			ref.off = uint32(len(st.pending))
			st.pending = journal.AppendFrame(st.pending, st.recBuf)
		}
		e.blocks = append(e.blocks, ref)
	}
	return i + n
}

// unindex drops the index entries frameSeals added for full[:j] when the
// commit fails: nothing of the batch is acked, and the blocks stay open,
// readable from the tail.
func (st *Store) unindex(j int) {
	for _, id := range st.full[:j] {
		e := st.ents[id]
		e.blocks = e.blocks[:len(e.blocks)-1]
	}
}

// fail poisons the store with its first failed write (see writable).
func (st *Store) fail(tier int, err error) error {
	st.err = fmt.Errorf("tsdb: %s segment write failed, store must be reopened: %w", tierPrefix[tier], err)
	return st.err
}

// writeTier appends b to the tier's segments in one write and fsyncs
// them, and returns the segment and offset it landed at.
func (st *Store) writeTier(tier int, b []byte) (seq uint64, off int64, err error) {
	if seq, off, err = st.write(tier, b); err == nil {
		err = st.sync(tier)
	}
	return seq, off, err
}

// write appends b to the tier's segments in one write and returns the
// segment and offset it landed at. Any failure poisons the store. A
// memory store writes nothing.
func (st *Store) write(tier int, b []byte) (uint64, int64, error) {
	if st.dir == "" {
		return 0, 0, nil
	}
	seq, off, err := st.segs[tier].Write(b)
	if err != nil {
		return 0, 0, st.fail(tier, err)
	}
	if off == 0 {
		st.m.segment(tier)
	}
	st.m.wrote(tier, len(b), st.diskBytes())
	return seq, off, nil
}

// sync fsyncs the tier's active segment unless NoSync — a segment an
// earlier write of the same commit rotated out was fsynced as it closed
// (see journal.Segments). Any failure poisons the store.
func (st *Store) sync(tier int) error {
	if st.dir == "" || st.opts.NoSync {
		return nil
	}
	t0 := st.m.start()
	err := st.segs[tier].Sync()
	st.m.synced(t0)
	if err != nil {
		return st.fail(tier, err)
	}
	return nil
}

// Lookup returns the handle of a known entity, and the zero Handle —
// which reads as empty until its first AppendTo resolves it — for an
// unknown one.
func (st *Store) Lookup(entity string) Handle {
	if id, ok := st.ids[entity]; ok {
		return Handle{st.ents[id]}
	}
	return Handle{}
}

// Latest returns the newest raw sample of h's entity, from the tail: the
// last of its open block, else of its newest sealed block — none once the
// retention cut has passed it.
func (st *Store) Latest(h Handle) (Sample, bool) {
	switch e := h.e; {
	case e == nil:
	case e.n > 0 && e.tail[e.n-1].Minute >= st.cut:
		return e.tail[e.n-1], true
	case e.n == 0 && len(e.blocks) > 0: // every block left ends at or above the cut
		return e.tail[BlockSamples-1], true
	}
	return Sample{}, false
}

// Count returns how many raw samples h's entity holds at or above the
// retention cut — what a Range over every minute visits — from the
// block index: BlockSamples for every sealed block that starts at or
// above the cut, a walk of the one block the cut may split (from disk
// unless the tail or a memory store holds
// it), and the open block. A closed store that would have to read that
// block fails with ErrClosed.
func (st *Store) Count(h Handle) (int, error) {
	e := h.e
	if e == nil {
		return 0, nil
	}
	n := e.n - below(e.tail[:e.n], st.cut)
	for i, ref := range e.blocks {
		if ref.start >= st.cut {
			return n + (len(e.blocks)-i)*BlockSamples, nil
		}
		samples, err := st.loadBlock(e, i, st.cut)
		if err != nil {
			return 0, err
		}
		n += len(samples) - below(samples, st.cut)
	}
	return n, nil
}

// Range calls fn for every raw minute-tier sample of h's entity in
// [from, to), in chronological order — sealed blocks first, then the
// open block — and reports whether the read needed a sealed block the
// entity does not hold raw. The tail holds the newest BlockSamples
// samples: a window that reaches further back needs the newest sealed
// block from disk, or an older one, unless the store keeps them raw (a
// memory store). Minutes below the retention cut are gone and are not
// visited. fn must not call back into the
// store. A closed store still answers from what it holds raw; a block it
// would have to read from disk fails the call with ErrClosed. A read
// that stays in the tail and the raw blocks does no lookup and allocates
// nothing.
func (st *Store) Range(h Handle, from, to int, fn func(Sample)) (disk bool, err error) {
	e := h.e
	if e == nil || from >= to {
		return false, nil
	}
	i, lo := st.first(e, from)
	disk = i < len(e.blocks) && e.blocks[i].raw == nil && e.blocks[i].start < to &&
		(i < len(e.blocks)-1 || !e.inTail(lo))
	return disk, st.forEachMinute(e, from, to, fn)
}

// first clamps from to the retention cut and returns the index of
// the first sealed block that may hold a minute at or after it.
func (st *Store) first(e *entState, from int) (int, int) {
	from = max(from, st.cut)
	return sort.Search(len(e.blocks), func(i int) bool { return e.blocks[i].end >= from }), from
}

// forEachMinute walks e's raw samples in [from, to).
func (st *Store) forEachMinute(e *entState, from, to int, fn func(Sample)) error {
	i, from := st.first(e, from)
	for ; i < len(e.blocks) && e.blocks[i].start < to; i++ {
		samples, err := st.loadBlock(e, i, from)
		if err != nil {
			return err
		}
		emit(samples, from, to, fn)
	}
	emit(e.tail[:e.n], from, to, fn)
	return nil
}

// emit calls fn for the samples of a chronological run in [from, to).
func emit(run []Sample, from, to int, fn func(Sample)) {
	for _, s := range run[below(run, from):] {
		if s.Minute >= to {
			return
		}
		fn(s)
	}
}

// below returns how many samples of a chronological run lie before
// minute from.
func below(run []Sample, from int) int {
	return sort.Search(len(run), func(i int) bool { return run[i].Minute >= from })
}

// loadBlock returns e.blocks[i]'s samples at or after minute from, and
// possibly some before it: the newest sealed block's that the tail still
// holds, tail[n:], when they are all of those (see inTail); a memory
// store's block as it is; any other block read from disk and decoded
// into the store's scratch — valid until the next store call. A closed
// store reads nothing from disk.
func (st *Store) loadBlock(e *entState, i, from int) ([]Sample, error) {
	ref := &e.blocks[i]
	switch {
	case i == len(e.blocks)-1 && e.inTail(from):
		return e.tail[e.n:], nil
	case ref.raw != nil:
		return ref.raw[:], nil
	case st.closed:
		return nil, ErrClosed
	}
	n := sealFrameLen(e.id)
	st.frameBuf = slices.Grow(st.frameBuf[:0], n)[:n]
	if err := st.segs[minuteTier].ReadAt(uint64(ref.seq), int64(ref.off), st.frameBuf); err != nil {
		return nil, err
	}
	payload, _, err := journal.DecodeFrame(st.frameBuf)
	if err != nil {
		return nil, fmt.Errorf("tsdb: sealed block at %s seq %d off %d: %w", st.dir, ref.seq, ref.off, err)
	}
	r, err := decodeRecord(payload, st.blockBuf[:0])
	if err == nil && r.kind != kBlock {
		err = ErrBadRecord
	}
	if err != nil {
		return nil, err
	}
	st.blockBuf = r.samples
	return r.samples, nil
}

// SeriesBuf is a reusable result buffer for ReadSeries. Minutes is
// reset, not reallocated, across calls.
type SeriesBuf struct {
	Minutes []Sample
}

// ReadSeries fills buf with entity's raw samples in [from, to). An
// unknown entity yields an empty buffer.
func (st *Store) ReadSeries(entity string, from, to int, buf *SeriesBuf) error {
	buf.Minutes = buf.Minutes[:0]
	id, ok := st.ids[entity]
	if !ok {
		return nil
	}
	return st.forEachMinute(st.ents[id], from, to, func(s Sample) {
		buf.Minutes = append(buf.Minutes, s)
	})
}

// Watermark returns the retention cut: every sample below it is gone.
func (st *Store) Watermark() int { return st.cut }

// Entities returns every known entity name in registration order.
func (st *Store) Entities() []string {
	names := make([]string, len(st.ents))
	for i, e := range st.ents {
		names[i] = e.name
	}
	return names
}

func (st *Store) diskBytes() (n int64) {
	for _, s := range st.segs {
		if s != nil {
			n += s.Bytes()
		}
	}
	return n
}

// Close commits buffered samples and closes every segment. The store
// takes no appends afterwards; reads answer from memory.
func (st *Store) Close() error {
	if st.closed {
		return nil
	}
	err := st.Commit()
	st.closed = true
	for _, s := range st.segs {
		if s != nil {
			if cerr := s.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
