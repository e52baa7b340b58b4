package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"autoglobe/internal/journal"
)

// Options tunes a Store.
type Options struct {
	// SegmentBytes is the rotation threshold: a commit that finds the
	// active segment past it starts a new segment first (default 1 MiB).
	SegmentBytes int
	// NoSync skips the fsync after each commit. Simulations and tests
	// leave it on their temp-dir "disks" (the crash model is process
	// death, not power loss); production daemons clear it.
	NoSync bool
	// CacheBlocks is the hot-block cache capacity in sealed blocks
	// (default 32 — the controller's steady-state reads touch only the
	// most recent blocks of each watched entity).
	CacheBlocks int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = 32
	}
	return o
}

// tier file-name prefixes; dictTier is the pseudo-tier of the entity
// dictionary stream.
const dictTier = 3

var tierPrefix = [4]string{"min", "hr", "day", "dict"}

// blockRef locates one sealed minute block on disk.
type blockRef struct {
	seq   int   // minute-tier segment sequence
	off   int64 // frame start offset within the segment file
	n     int   // framed length in bytes
	start int   // first sample minute
	end   int   // last sample minute
}

// entState is the in-memory state of one entity: the open (unsealed)
// block, the index of its sealed blocks on disk, and its downsampled
// tiers.
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

	blocks []blockRef // sealed minute blocks, chronological
	hours  []Agg      // hour aggregates ≥ the hour→day watermark
	days   []Agg      // day aggregates, chronological
}

// Store is a segmented, append-only, disk-backed time-series store.
// Writes are buffered in memory and made durable by Commit — the
// archive calls it once per observed minute, so "acked" means "the
// minute closed". All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu   sync.Mutex
	ids  map[string]uint64
	ents []*entState

	active  [4]*os.File // active segment per tier (lazily opened)
	actSeq  [4]int
	actSize [4]int64
	nextSeq [4]int

	files   map[int]*os.File // minute-tier read handles by seq
	segMax  map[int]int      // minute-tier seq → max sample minute written
	segSize map[int]int64    // minute-tier seq → bytes written

	// marks[TierMinute]: minute data below this is rolled into hours;
	// marks[TierHour]: hour data below this is rolled into days.
	marks [2]int

	row         []byte   // open row payload: the cells appended since the last row frame
	rowBase     int      // minute the open row's cells are relative to
	pending     []byte   // framed minute-tier batch: closed rows, then the seals Commit adds
	dictPending []byte   // framed dict records for entities seen since last Commit
	full        []uint64 // entities whose open block is full and awaits its seal
	stagedMax   int      // newest minute staged since the last Commit
	recBuf      []byte   // record payload scratch
	aggScratch  []Agg    // compaction scratch

	cache blockCache

	diskBytes int64
	closed    bool
	err       error // first failed write; sticky until the directory is reopened

	m *storeMetrics
}

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("tsdb: store is closed")

// rowFrameBytes closes the open row into a frame of its own before the
// commit: a caller staging hours of a large fleet between commits must
// stay far below journal.MaxRecordBytes.
const rowFrameBytes = 256 << 10

// sealFrameBytes bounds one framed sealed block: the journal's 9-byte
// frame header, kind and tier, id and count, the samples. Taking both
// varints at their maximum is the batch buffer's headroom for the
// entities that join between two seal bursts.
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
// Appends after Open go to fresh segments.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{
		dir:     dir,
		opts:    opts.withDefaults(),
		ids:     make(map[string]uint64),
		files:   make(map[int]*os.File),
		segMax:  make(map[int]int),
		segSize: make(map[int]int64),
	}
	if err := st.replay(); err != nil {
		return nil, err
	}
	return st, nil
}

// segFiles lists the tier's segment files in sequence order and bumps
// nextSeq past them.
func (st *Store) segFiles(tier int) ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	prefix := tierPrefix[tier] + "-"
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".seg"))
		if err != nil {
			continue
		}
		if seq >= st.nextSeq[tier] {
			st.nextSeq[tier] = seq + 1
		}
		names = append(names, name)
	}
	// %08d names sort numerically; ReadDir already returns sorted order.
	slices.Sort(names)
	return names, nil
}

func (st *Store) segSeq(name string) int {
	base := name[strings.IndexByte(name, '-')+1:]
	seq, _ := strconv.Atoi(strings.TrimSuffix(base, ".seg"))
	return seq
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

// forEachFrame replays a tier's segments in sequence order. Each file is
// read into one buffer — reused across the tier's segments, dropped on
// return — and fn sees every intact frame in place: the payload (valid
// during the call only), its segment, and the frame's offset and framed
// length there. A torn final frame ends a segment cleanly.
func (st *Store) forEachFrame(tier int, fn func(seq int, off int64, n int, payload []byte) error) error {
	names, err := st.segFiles(tier)
	if err != nil {
		return err
	}
	var buf []byte
	for _, name := range names {
		seq := st.segSeq(name)
		if buf, err = readInto(buf, filepath.Join(st.dir, name)); err != nil {
			return err
		}
		st.diskBytes += int64(len(buf))
		if tier == int(TierMinute) {
			st.segSize[seq] = int64(len(buf))
		}
		for off := 0; ; {
			p, n, err := journal.DecodeFrame(buf[off:])
			if err != nil {
				break
			}
			if err := fn(seq, int64(off), n, p); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			off += n
		}
	}
	return nil
}

// readInto reads the whole file into buf's backing array, growing it
// only when the file is larger.
func readInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf = slices.Grow(buf[:0], int(fi.Size()))[:fi.Size()]
	_, err = io.ReadFull(f, buf)
	return buf, err
}

func (st *Store) replayDict() error {
	return st.forEachFrame(dictTier, func(_ int, _ int64, _ int, p []byte) error {
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
	return st.forEachFrame(tier, func(_ int, _ int64, _ int, p []byte) error {
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

// replayMinutes rebuilds the sealed-block index and each entity's open
// block. A row's cells (and the samples of a tail, the one-entity row
// of a store written before the row record) fill open blocks, skipping
// what the watermark has downsampled away; a sealed block (exactly
// BlockSamples samples) becomes an index entry and empties the
// entity's open block — its samples are the cells replayed in front of
// it, by the batch order block.go documents. A block still full when
// the stream ends is the orphan of a batch torn between its rows and
// its seals: it goes on the full list and the next Commit seals it.
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
	frame := func(seq int, off int64, n int, p []byte) error {
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
		}
		return nil
	}
	err := st.forEachFrame(int(TierMinute), func(seq int, off int64, n int, p []byte) error {
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

// register creates the in-memory state for a new entity (replay path:
// no dict record is staged).
func (st *Store) register(name string) *entState {
	e := &entState{id: uint64(len(st.ents)), name: name}
	st.ids[name] = e.id
	st.ents = append(st.ents, e)
	return e
}

// Handle is a resolved append handle on one entity. The zero value is
// unresolved: the first AppendTo that passes the store-level checks
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
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.writable(); err != nil {
		return err
	}
	if s.Minute < st.marks[TierMinute] {
		return fmt.Errorf("tsdb: sample at minute %d below compaction watermark %d", s.Minute, st.marks[TierMinute])
	}
	e := h.e
	if e == nil {
		if id, ok := st.ids[entity]; ok {
			e = st.ents[id]
		} else {
			e = st.register(entity)
			st.recBuf = appendDictRecord(st.recBuf[:0], e.id, entity)
			st.dictPending = journal.AppendFrame(st.dictPending, st.recBuf)
		}
		h.e = e
	}
	if e.hasLast && s.Minute < e.last {
		return fmt.Errorf("tsdb: non-monotone minute %d for %q (last %d)", s.Minute, entity, e.last)
	}
	if e.n == BlockSamples {
		if err := st.commitLocked(); err != nil {
			return err
		}
	}
	e.open[e.n] = s
	e.n++
	e.last, e.hasLast = s.Minute, true
	if e.n == BlockSamples {
		st.full = append(st.full, e.id)
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

// Commit makes every buffered sample durable in one batched segment
// write (plus one fsync unless Options.NoSync): the row of samples
// appended since the last commit, then a sealed block for every entity
// whose 64th open sample is among them — only those entities are
// touched. Journal-style prefix durability applies — a crash
// mid-commit preserves an intact prefix of the batch and the torn tail
// is dropped on replay; a prefix that holds the rows but not every seal
// reopens with those blocks full and unsealed, and the next commit
// seals them. A commit with nothing buffered is a no-op. A commit whose
// write fails acknowledges nothing and leaves the store refusing
// appends, commits and compactions with that error until the directory
// is reopened: replay rebuilds from what really reached the disk.
func (st *Store) Commit() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.commitLocked()
}

func (st *Store) commitLocked() error {
	if st.err != nil {
		return st.err
	}
	st.closeRow()
	if len(st.dictPending) == 0 && len(st.pending) == 0 && len(st.full) == 0 {
		return nil
	}
	t0 := st.m.start()
	// New entities become durable before any data referencing them.
	if len(st.dictPending) > 0 {
		if err := st.writeTier(dictTier, st.dictPending); err != nil {
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

// commitMinutes writes the minute-tier batch: the rows already framed
// in pending, then the seals of the full list.
func (st *Store) commitMinutes() error {
	if err := st.ensureActive(int(TierMinute)); err != nil {
		return st.fail(int(TierMinute), err)
	}
	seq, base := st.actSeq[TierMinute], st.actSize[TierMinute]
	newest := st.stagedMax
	// Canonical batch order regardless of append interleaving; the
	// batch buffer is sized once for the whole burst.
	slices.Sort(st.full)
	st.pending = slices.Grow(st.pending, len(st.full)*sealFrameBytes)
	for _, id := range st.full {
		// Record the block's future file location now — the whole batch
		// lands at base in one write.
		e := st.ents[id]
		st.recBuf = appendBlockRecord(st.recBuf[:0], TierMinute, id, e.open[:])
		off := len(st.pending)
		st.pending = journal.AppendFrame(st.pending, st.recBuf)
		end := e.open[BlockSamples-1].Minute
		e.blocks = append(e.blocks, blockRef{seq: seq, off: base + int64(off), n: len(st.pending) - off, start: e.open[0].Minute, end: end})
		e.n = 0
		newest = max(newest, end) // an orphan sealed after a reopen has no row in this batch
	}
	if err := st.writeTier(int(TierMinute), st.pending); err != nil {
		// Nothing of this batch is acked or indexed: the blocks stay
		// open, readable from memory.
		for _, id := range st.full {
			e := st.ents[id]
			e.blocks, e.n = e.blocks[:len(e.blocks)-1], BlockSamples
		}
		return err
	}
	if newest > st.segMax[seq] {
		st.segMax[seq] = newest
	}
	st.segSize[seq] += int64(len(st.pending))
	st.m.addBlocks(kindSealed, len(st.full))
	st.pending, st.full, st.stagedMax = st.pending[:0], st.full[:0], 0
	return nil
}

// fail poisons the store with its first failed write (see writable).
func (st *Store) fail(tier int, err error) error {
	st.err = fmt.Errorf("tsdb: %s segment write failed, store must be reopened: %w", tierPrefix[tier], err)
	return st.err
}

// ensureActive opens (or rotates) the tier's active segment so the next
// write has room below the rotation threshold.
func (st *Store) ensureActive(tier int) error {
	if st.active[tier] != nil && st.actSize[tier] < int64(st.opts.SegmentBytes) {
		return nil
	}
	if st.active[tier] != nil && tier != int(TierMinute) {
		// Minute handles stay open for ReadAt; other tiers are replay-only.
		if err := st.active[tier].Close(); err != nil {
			return err
		}
		st.active[tier] = nil
	}
	seq := st.nextSeq[tier]
	st.nextSeq[tier]++
	name := fmt.Sprintf("%s-%08d.seg", tierPrefix[tier], seq)
	f, err := os.OpenFile(filepath.Join(st.dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	st.active[tier] = f
	st.actSeq[tier] = seq
	st.actSize[tier] = 0
	if tier == int(TierMinute) {
		st.files[seq] = f
		st.segSize[seq] = 0
	}
	st.m.segment(tier)
	return nil
}

// writeTier appends b to the tier's active segment in one write, with
// an fsync unless NoSync. Any failure poisons the store.
func (st *Store) writeTier(tier int, b []byte) error {
	if err := st.ensureActive(tier); err != nil {
		return st.fail(tier, err)
	}
	n, err := st.active[tier].Write(b)
	st.actSize[tier] += int64(n)
	st.diskBytes += int64(n)
	st.m.wrote(tier, n, st.diskBytes)
	if err == nil && !st.opts.NoSync {
		t0 := st.m.start()
		err = st.active[tier].Sync()
		st.m.synced(t0)
	}
	if err != nil {
		return st.fail(tier, err)
	}
	return nil
}

// ForEachMinute calls fn for every raw minute-tier sample of entity in
// [from, to), in chronological order — sealed blocks (through the
// hot-block cache) first, then the open buffer. Minutes below the
// minute→hour watermark have been downsampled away and are not
// visited. fn must not call back into the store.
func (st *Store) ForEachMinute(entity string, from, to int, fn func(Sample)) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	id, ok := st.ids[entity]
	if !ok {
		return nil
	}
	return st.forEachMinuteLocked(st.ents[id], from, to, fn)
}

func (st *Store) forEachMinuteLocked(e *entState, from, to int, fn func(Sample)) error {
	if from < st.marks[TierMinute] {
		from = st.marks[TierMinute]
	}
	for i := range e.blocks {
		ref := &e.blocks[i]
		if ref.end < from || ref.start >= to {
			continue
		}
		samples, err := st.loadBlock(ref)
		if err != nil {
			return err
		}
		for _, s := range samples {
			if s.Minute >= from && s.Minute < to {
				fn(s)
			}
		}
	}
	for _, s := range e.open[:e.n] {
		if s.Minute >= from && s.Minute < to {
			fn(s)
		}
	}
	return nil
}

// loadBlock returns the sealed block's samples via the hot-block cache,
// reading the frame from disk through a pooled buffer on a miss. The
// returned slice belongs to the cache slot — callers must not retain it
// across store calls.
func (st *Store) loadBlock(ref *blockRef) ([]Sample, error) {
	key := blockKey{seq: ref.seq, off: ref.off}
	if s, ok := st.cacheGet(key); ok {
		st.m.cache(true)
		return s, nil
	}
	st.m.cache(false)
	f := st.files[ref.seq]
	if f == nil {
		var err error
		name := fmt.Sprintf("%s-%08d.seg", tierPrefix[TierMinute], ref.seq)
		f, err = os.Open(filepath.Join(st.dir, name))
		if err != nil {
			return nil, err
		}
		st.files[ref.seq] = f
	}
	buf := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(buf)
	b := *buf
	if cap(b) < ref.n {
		b = make([]byte, ref.n)
		*buf = b
	}
	b = b[:ref.n]
	if _, err := f.ReadAt(b, ref.off); err != nil {
		return nil, err
	}
	payload, _, err := journal.DecodeFrame(b)
	if err != nil {
		return nil, fmt.Errorf("tsdb: sealed block at %s seq %d off %d: %w", st.dir, ref.seq, ref.off, err)
	}
	slot := st.cacheSlot(key)
	r, err := decodeRecord(payload, slot.samples[:0], nil)
	if err != nil || r.kind != kBlock {
		st.cacheDrop(key)
		if err == nil {
			err = ErrBadRecord
		}
		return nil, err
	}
	slot.samples = r.samples
	return slot.samples, nil
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
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
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
	return st.forEachMinuteLocked(e, from, to, func(s Sample) {
		buf.Minutes = append(buf.Minutes, s)
	})
}

// Watermark returns the compaction watermark of a source tier: minute
// data below Watermark(TierMinute) lives in the hour tier, hour data
// below Watermark(TierHour) in the day tier. TierDay has no watermark.
func (st *Store) Watermark(t Tier) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if t >= TierDay {
		return 0
	}
	return st.marks[t]
}

// Entities returns every known entity name in registration order.
func (st *Store) Entities() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, len(st.ents))
	for i, e := range st.ents {
		names[i] = e.name
	}
	return names
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// DiskBytes returns the bytes currently on disk across all segments.
func (st *Store) DiskBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.diskBytes
}

// Close commits buffered samples and closes every file handle. The
// store is unusable afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	err := st.commitLocked()
	st.closed = true
	for tier, f := range st.active {
		if f == nil {
			continue
		}
		// Minute-tier actives also sit in st.files; close once there.
		if tier != int(TierMinute) {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		st.active[tier] = nil
	}
	for seq, f := range st.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		delete(st.files, seq)
	}
	return err
}
