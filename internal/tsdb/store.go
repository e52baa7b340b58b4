package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"autoglobe/internal/journal"
)

// Options tunes a Store's segments: they are the journal's (see
// journal.Options).
type Options = journal.Options

// tier file-name prefixes; dictTier is the pseudo-tier of the entity
// dictionary stream.
const dictTier = 3

var tierPrefix = [4]string{"min", "hr", "day", "dict"}

// blockRef indexes one sealed minute block: its frame on disk, or in a
// memory store the block itself.
type blockRef struct {
	raw   *[BlockSamples]Sample // a memory store's block; nil on disk
	seq   uint64                // minute-tier segment number
	off   int64                 // frame start offset within the segment file
	n     int                   // framed length in bytes
	start int                   // first sample minute
	end   int                   // last sample minute
}

// entState is the in-memory state of one entity: its raw tail — the
// open block and the newest sealed one — the index of its sealed
// blocks, and its downsampled tiers.
type entState struct {
	id   uint64
	name string

	// open[:n] holds the samples not yet sealed into a block. Their
	// durable copies are row cells; the block is sealed by the commit
	// that follows its 64th sample, so it never grows past one block and
	// lives inline.
	open    [BlockSamples]Sample
	n       int
	last    int // last appended minute (monotonicity guard)
	hasLast bool

	// sealed is blocks[len(blocks)-1] held raw whenever blocks is not
	// empty: with open, 64–128 samples that every watchTime read and
	// Latest find in memory. A seal copies open here once its frame is
	// written; replay copies each seal frame's samples.
	sealed [BlockSamples]Sample

	blocks []blockRef // sealed minute blocks, chronological
	hours  []Agg      // hour aggregates ≥ the hour→day watermark
	days   []Agg      // day aggregates, chronological
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

	segs   [4]*journal.Segments // one segment stream per tier; none in a memory store
	segMax map[uint64]int       // minute-tier segment → max sample minute written

	// marks[TierMinute]: minute data below this is rolled into hours;
	// marks[TierHour]: hour data below this is rolled into days.
	marks [2]int

	row         []byte   // open row payload: the cells appended since the last row frame
	rowBase     int      // minute the open row's cells are relative to
	pending     []byte   // framed minute-tier chunk: closed rows, then the seals Commit adds
	dictPending []byte   // framed dict records for entities seen since last Commit
	full        []uint64 // entities whose open block is full and awaits its seal
	stagedMax   int      // newest minute staged since the last Commit
	recBuf      []byte   // record payload scratch
	aggScratch  []Agg    // compaction scratch
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
const sealFrameBytes = 9 + 2 + 2*binary.MaxVarintLen64 + BlockSamples*sampleBytes

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
// the entity dictionary, then the day, hour and minute tiers, honoring
// compaction watermarks (aggregates past the last watermark are orphans
// of a torn compaction and are dropped; minute data below the watermark
// has been downsampled and is dropped). Replay tolerates a torn final
// frame in every stream — the expected end state of a crashed writer.
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
	// Aggregate tiers first: their watermark records decide which finer
	// data is still authoritative.
	if err := st.replayAggs(int(TierDay)); err != nil {
		return err
	}
	if err := st.replayAggs(int(TierHour)); err != nil {
		return err
	}
	if err := st.replayMinutes(); err != nil {
		return err
	}
	// Hour aggregates below the hour→day watermark were rolled into
	// days; the hr segments still hold them (only minute segments are
	// pruned), so drop them from memory here.
	for _, e := range st.ents {
		e.hours = slices.DeleteFunc(e.hours, func(a Agg) bool {
			return a.Start < st.marks[TierHour]
		})
	}
	return nil
}

func (st *Store) replayDict() error {
	return st.segs[dictTier].Replay(0, func(_ uint64, _ int64, _ int, p []byte) error {
		r, err := decodeRecord(p, nil, nil)
		if err != nil {
			return err
		}
		if r.kind != kDict {
			return fmt.Errorf("non-dict record in dict stream: %w", ErrBadRecord)
		}
		if r.id != uint64(len(st.ents)) {
			return fmt.Errorf("dict id %d out of order: %w", r.id, ErrBadRecord)
		}
		st.register(r.name)
		return nil
	})
}

// replayAggs replays the hour or day stream. Aggregates are provisional
// until a watermark record commits them: a compaction appends its
// aggregates and then the watermark in one batch, so an aggregate with
// no following watermark is the orphan of a torn compaction.
func (st *Store) replayAggs(tier int) error {
	// The watermark in the day stream governs the HOUR tier (hour→day
	// roll-up), the one in the hr stream governs the MINUTE tier.
	srcTier := TierHour
	if tier == int(TierHour) {
		srcTier = TierMinute
	}
	type pendAgg struct {
		id uint64
		a  Agg
	}
	var provisional []pendAgg
	var aggScratch []Agg
	return st.segs[tier].Replay(0, func(_ uint64, _ int64, _ int, p []byte) error {
		r, err := decodeRecord(p, nil, aggScratch)
		if err != nil {
			return err
		}
		switch r.kind {
		case kAgg:
			if int(r.tier) != tier {
				return fmt.Errorf("tier %v record in %s stream: %w", r.tier, tierPrefix[tier], ErrBadRecord)
			}
			if r.id >= uint64(len(st.ents)) {
				return fmt.Errorf("aggregate for unknown entity %d: %w", r.id, ErrBadRecord)
			}
			for _, a := range r.aggs {
				provisional = append(provisional, pendAgg{r.id, a})
			}
			aggScratch = r.aggs[:0]
		case kMark:
			if r.tier != srcTier {
				return fmt.Errorf("tier %v watermark in %s stream: %w", r.tier, tierPrefix[tier], ErrBadRecord)
			}
			for _, pa := range provisional {
				e := st.ents[pa.id]
				if tier == int(TierDay) {
					e.days = append(e.days, pa.a)
				} else {
					e.hours = append(e.hours, pa.a)
				}
			}
			provisional = provisional[:0]
			if r.mark > st.marks[srcTier] {
				st.marks[srcTier] = r.mark
			}
		default:
			return fmt.Errorf("record kind %d in %s stream: %w", r.kind, tierPrefix[tier], ErrBadRecord)
		}
		return nil
	})
}

// replayMinutes rebuilds the sealed-block index and each entity's raw
// tail. A row's cells (and the samples of a tail record, the one-entity
// row of a store written before the row record) fill open blocks,
// skipping what the watermark has downsampled away; a sealed block
// (exactly BlockSamples samples) becomes an index entry and the tail's
// sealed block, and empties the entity's open block — its samples are
// the cells replayed in front of it, by the batch order block.go
// documents. A block still full when the stream ends is the orphan of a
// batch torn between its rows and its seals: it goes on the full list
// and the next Commit seals it.
func (st *Store) replayMinutes() error {
	wm := st.marks[TierMinute]
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
		if err != nil || s.Minute < wm { // below wm: already downsampled into the hour tier
			return err
		}
		if e.n == BlockSamples {
			return fmt.Errorf("entity %d open-block overflow: %w", id, ErrBadRecord)
		}
		e.open[e.n] = s
		e.n++
		return nil
	}
	frame := func(seq uint64, off int64, n int, p []byte) error {
		if len(p) > 0 && p[0] == kRow {
			return decodeRow(p, cell)
		}
		r, err := decodeRecord(p, scratch, nil)
		if err != nil {
			return err
		}
		if r.kind != kBlock || r.tier != TierMinute {
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
		e.n = 0
		if end >= wm {
			e.blocks = append(e.blocks, blockRef{seq: seq, off: off, n: n, start: r.samples[0].Minute, end: end})
			e.sealed = [BlockSamples]Sample(r.samples)
		}
		return nil
	}
	err := st.segs[TierMinute].Replay(0, func(seq uint64, off int64, n int, p []byte) error {
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
// contract) and at or above the minute→hour compaction watermark; a
// sample refused by a closed or failed store or the watermark does not
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
	if s.Minute < st.marks[TierMinute] {
		return fmt.Errorf("tsdb: sample at minute %d below compaction watermark %d", s.Minute, st.marks[TierMinute])
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
	e.open[e.n] = s
	e.n++
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
		st.closeRow()
	}
	return nil
}

// closeRow frames the open row, if any, onto the pending batch.
func (st *Store) closeRow() {
	if len(st.row) > 0 {
		st.pending = journal.AppendFrame(st.pending, st.row)
		st.row = st.row[:0]
		st.m.addBlocks(kindRow, 1)
	}
}

// Commit makes every buffered sample durable in one batch (plus one
// fsync unless Options.NoSync): the row of samples appended since the
// last commit, then a sealed block for every entity whose 64th open
// sample is among them — only those entities are touched. The batch
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
	if len(st.dictPending) == 0 && len(st.pending) == 0 && len(st.full) == 0 {
		return nil
	}
	t0 := st.m.start()
	// New entities become durable before any data referencing them.
	if len(st.dictPending) > 0 {
		if _, _, err := st.writeTier(dictTier, st.dictPending); err != nil {
			return err
		}
		st.dictPending = st.dictPending[:0]
	}
	if len(st.pending) > 0 || len(st.full) > 0 {
		if err := st.commitMinutes(); err != nil {
			return err
		}
	}
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
		seq, base, err := st.write(int(TierMinute), st.pending)
		if err != nil {
			st.unindex(j)
			return err
		}
		for _, id := range st.full[i:j] {
			e := st.ents[id]
			ref := &e.blocks[len(e.blocks)-1]
			ref.seq, ref.off = seq, base+ref.off
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
	if err := st.sync(int(TierMinute)); err != nil {
		st.unindex(len(st.full))
		return err
	}
	for _, id := range st.full {
		e := st.ents[id]
		e.sealed, e.n = e.open, 0
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
// within rowFrameBytes + sealFrameBytes unless the rows alone pass that.
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
		ref := blockRef{start: e.open[0].Minute, end: e.open[BlockSamples-1].Minute}
		if st.dir == "" {
			ref.raw = new([BlockSamples]Sample)
			*ref.raw = e.open
		} else {
			st.recBuf = appendBlockRecord(st.recBuf[:0], TierMinute, id, e.open[:])
			off := len(st.pending)
			st.pending = journal.AppendFrame(st.pending, st.recBuf)
			ref.off, ref.n = int64(off), len(st.pending)-off
		}
		e.blocks = append(e.blocks, ref)
	}
	return i + n
}

// unindex drops the index entries frameSeals added for full[:j] when the
// commit fails: nothing of the batch is acked, the blocks stay open and
// the tails as they were, readable from memory.
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

// Latest returns the newest raw sample of h's entity: the last of its
// open block, else of its newest sealed block — none once the watermark
// has passed it.
func (st *Store) Latest(h Handle) (Sample, bool) {
	switch e := h.e; {
	case e == nil:
	case e.n > 0 && e.open[e.n-1].Minute >= st.marks[TierMinute]:
		return e.open[e.n-1], true
	case e.n == 0 && len(e.blocks) > 0: // every block left ends at or above the watermark
		return e.sealed[BlockSamples-1], true
	}
	return Sample{}, false
}

// Range calls fn for every raw minute-tier sample of h's entity in
// [from, to), in chronological order — sealed blocks first, then the
// open block — and reports whether the read needed a sealed block the
// entity does not hold raw. Minutes below the minute→hour watermark have
// been downsampled away and are not visited. fn must not call back into
// the store. A closed store still answers from what it holds raw; a
// block it would have to read from disk fails the call with ErrClosed.
// A read that stays in the tail and the raw blocks does no lookup and
// allocates nothing.
func (st *Store) Range(h Handle, from, to int, fn func(Sample)) (disk bool, err error) {
	e := h.e
	if e == nil || from >= to {
		return false, nil
	}
	i, _ := st.first(e, from)
	disk = i < len(e.blocks)-1 && e.blocks[i].raw == nil && e.blocks[i].start < to
	return disk, st.forEachMinute(e, from, to, fn)
}

// first clamps from to the minute watermark and returns the index of
// the first sealed block that may hold a minute at or after it.
func (st *Store) first(e *entState, from int) (int, int) {
	from = max(from, st.marks[TierMinute])
	return sort.Search(len(e.blocks), func(i int) bool { return e.blocks[i].end >= from }), from
}

// forEachMinute walks e's raw samples in [from, to).
func (st *Store) forEachMinute(e *entState, from, to int, fn func(Sample)) error {
	i, from := st.first(e, from)
	for ; i < len(e.blocks) && e.blocks[i].start < to; i++ {
		samples, err := st.loadBlock(e, i)
		if err != nil {
			return err
		}
		emit(samples, from, to, fn)
	}
	emit(e.open[:e.n], from, to, fn)
	return nil
}

// emit calls fn for the samples of a chronological run in [from, to).
func emit(run []Sample, from, to int, fn func(Sample)) {
	for _, s := range run[sort.Search(len(run), func(i int) bool { return run[i].Minute >= from }):] {
		if s.Minute >= to {
			return
		}
		fn(s)
	}
}

// loadBlock returns the samples of e.blocks[i]: the tail's sealed block
// or a memory store's block as they are, any other block read from disk
// and decoded into the store's scratch — valid until the next store
// call. A closed store reads nothing from disk.
func (st *Store) loadBlock(e *entState, i int) ([]Sample, error) {
	ref := &e.blocks[i]
	switch {
	case i == len(e.blocks)-1:
		return e.sealed[:], nil
	case ref.raw != nil:
		return ref.raw[:], nil
	case st.closed:
		return nil, ErrClosed
	}
	st.frameBuf = slices.Grow(st.frameBuf[:0], ref.n)[:ref.n]
	if err := st.segs[TierMinute].ReadAt(ref.seq, ref.off, st.frameBuf); err != nil {
		return nil, err
	}
	payload, _, err := journal.DecodeFrame(st.frameBuf)
	if err != nil {
		return nil, fmt.Errorf("tsdb: sealed block at %s seq %d off %d: %w", st.dir, ref.seq, ref.off, err)
	}
	r, err := decodeRecord(payload, st.blockBuf[:0], nil)
	if err == nil && r.kind != kBlock {
		err = ErrBadRecord
	}
	if err != nil {
		return nil, err
	}
	st.blockBuf = r.samples
	return r.samples, nil
}

// SeriesBuf is a reusable result buffer for ReadSeries: the best
// available resolution for each span — day aggregates for the oldest
// history, hour aggregates below the minute→hour watermark, raw
// samples above it. Slices are reset, not reallocated, across calls.
type SeriesBuf struct {
	Days    []Agg
	Hours   []Agg
	Minutes []Sample
}

// ReadSeries fills buf with entity's data intersecting [from, to):
// day aggregates whose window starts below the hour→day watermark,
// hour aggregates from there up to the minute→hour watermark, raw
// minute samples above it. An unknown entity yields an empty buffer.
func (st *Store) ReadSeries(entity string, from, to int, buf *SeriesBuf) error {
	buf.Days, buf.Hours, buf.Minutes = buf.Days[:0], buf.Hours[:0], buf.Minutes[:0]
	id, ok := st.ids[entity]
	if !ok {
		return nil
	}
	e := st.ents[id]
	for _, a := range e.days {
		if a.Start+TierDay.Window() > from && a.Start < to {
			buf.Days = append(buf.Days, a)
		}
	}
	for _, a := range e.hours {
		if a.Start+TierHour.Window() > from && a.Start < to {
			buf.Hours = append(buf.Hours, a)
		}
	}
	return st.forEachMinute(e, from, to, func(s Sample) {
		buf.Minutes = append(buf.Minutes, s)
	})
}

// Watermark returns the compaction watermark of a source tier: minute
// data below Watermark(TierMinute) lives in the hour tier, hour data
// below Watermark(TierHour) in the day tier. TierDay has no watermark.
func (st *Store) Watermark(t Tier) int {
	if t >= TierDay {
		return 0
	}
	return st.marks[t]
}

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
