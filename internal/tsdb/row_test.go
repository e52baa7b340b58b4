package tsdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"autoglobe/internal/journal"
	"autoglobe/internal/obs"
)

// checkSeries fails unless the store serves exactly want per entity.
func checkSeries(t *testing.T, label string, st *Store, want map[string][]Sample) {
	t.Helper()
	for name, ws := range want {
		if got := collect(t, st, name, 0, 1<<30); !slices.Equal(got, ws) {
			t.Fatalf("%s: %s: got %d samples, want %d (or values differ)", label, name, len(got), len(ws))
		}
	}
}

// TestCommitCadences drives the row/seal write path at every commit
// cadence that lines up differently with the 64-sample block — below
// it, on it, one past it, multiples, and far past it (where AppendTo
// has to seal early) — with three entities whose blocks fill in
// different minutes. Each round-trips live and reopened, and every
// indexed block is a frame of exactly BlockSamples samples.
func TestCommitCadences(t *testing.T) {
	for _, cadence := range []int{1, 7, 60, 64, 65, 128, 200} {
		t.Run(fmt.Sprint(cadence), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{SegmentBytes: 16 << 10})
			const ents, minutes = 3, 450
			want := make(map[string][]Sample)
			for m := 0; m < minutes; m++ {
				for e := 0; e < ents; e++ {
					if m < e*21 { // out of phase: entity e joins 21·e minutes late
						continue
					}
					name := fmt.Sprintf("svc/app-%d", e)
					cpu, mem := load(e, m)
					s := Sample{Minute: m, CPU: cpu, Mem: mem}
					if err := st.Append(name, s); err != nil {
						t.Fatal(err)
					}
					want[name] = append(want[name], s)
				}
				if m%cadence == cadence-1 {
					if err := st.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			check := func(label string, st *Store) {
				t.Helper()
				checkSeries(t, label, st, want)
				for name, ws := range want {
					e := st.ents[st.ids[name]]
					if len(e.blocks) != len(ws)/BlockSamples || e.n != len(ws)%BlockSamples {
						t.Fatalf("%s: %s: %d samples in %d blocks + %d open", label, name, len(ws), len(e.blocks), e.n)
					}
					for i := range e.blocks {
						blk, err := st.loadBlock(e, i)
						if err != nil || len(blk) != BlockSamples {
							t.Fatalf("%s: %s: block %d holds %d samples (err %v)", label, name, i, len(blk), err)
						}
					}
				}
			}
			check("live", st)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			check("reopened", openStore(t, dir, Options{}))
		})
	}
}

// TestLegacyStoreOpens builds a minute segment the way the store wrote
// it before the row record — per commit and entity, the sealed blocks
// and then a short kBlock "tail" of what was appended since — and
// proves it opens, reads equal to its oracle and takes new appends.
func TestLegacyStoreOpens(t *testing.T) {
	dir := t.TempDir()
	const ents, minutes, cadence = 3, 150, 7
	var dict, seg []byte
	type legacy struct {
		open    []Sample
		flushed int
	}
	states := make([]legacy, ents)
	want := make(map[string][]Sample)
	name := func(e int) string { return fmt.Sprintf("svc/app-%d", e) }
	for e := 0; e < ents; e++ {
		dict = journal.AppendFrame(dict, appendDictRecord(nil, uint64(e), name(e)))
	}
	for m := 0; m < minutes; m++ {
		for e := range states {
			cpu, mem := load(e, m)
			s := Sample{Minute: m, CPU: cpu, Mem: mem}
			states[e].open = append(states[e].open, s)
			want[name(e)] = append(want[name(e)], s)
		}
		if m%cadence != cadence-1 && m != minutes-1 {
			continue
		}
		for e := range states {
			l := &states[e]
			for len(l.open) >= BlockSamples {
				seg = journal.AppendFrame(seg, appendBlockRecord(nil, TierMinute, uint64(e), l.open[:BlockSamples]))
				l.open = l.open[BlockSamples:]
				l.flushed = max(l.flushed-BlockSamples, 0)
			}
			if l.flushed < len(l.open) {
				seg = journal.AppendFrame(seg, appendBlockRecord(nil, TierMinute, uint64(e), l.open[l.flushed:]))
				l.flushed = len(l.open)
			}
		}
	}
	for file, b := range map[string][]byte{"dict-00000000.seg": dict, "min-00000000.seg": seg} {
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st := openStore(t, dir, Options{})
	checkSeries(t, "legacy", st, want)
	for m := minutes; m < minutes+100; m++ {
		for e := 0; e < ents; e++ {
			cpu, mem := load(e, m)
			s := Sample{Minute: m, CPU: cpu, Mem: mem}
			if err := st.Append(name(e), s); err != nil {
				t.Fatal(err)
			}
			want[name(e)] = append(want[name(e)], s)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	checkSeries(t, "legacy+new", st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, Options{})
	checkSeries(t, "reopened", re, want)
	// Tails are read, never written: the new segment holds rows and
	// full blocks only.
	img, err := os.ReadFile(filepath.Join(dir, "min-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := journal.Frames(img)
	for i, p := range payloads {
		if p[0] == kRow {
			continue
		}
		if r, err := decodeRecord(p, nil, nil); err != nil || r.kind != kBlock || len(r.samples) != BlockSamples {
			t.Fatalf("frame %d of the new segment: kind %d, %d samples, err %v", i, r.kind, len(r.samples), err)
		}
	}
}

// TestOversizedRowSplits stages far more than rowFrameBytes between two
// commits — the seeding pattern, an hour of a fleet at a time — and
// proves the batch goes out as several row frames, each a small
// fraction of journal.MaxRecordBytes, and reopens equal.
func TestOversizedRowSplits(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	const ents, minutes = 500, 60 // 30,000 cells ≈ 570 KB of row payload
	want := make(map[string][]Sample)
	handles := make([]Handle, ents)
	for m := 0; m < minutes; m++ {
		for e := 0; e < ents; e++ {
			name := fmt.Sprintf("host/h-%d", e)
			s := Sample{Minute: m, CPU: float64(e) / ents, Mem: float64(m) / minutes}
			if err := st.AppendTo(&handles[e], name, s); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], s)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, "min-00000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := journal.Frames(img)
	rows, cells := 0, 0
	for _, p := range payloads {
		if p[0] != kRow {
			t.Fatalf("record kind %d in a batch with no full block", p[0])
		}
		rows++
		if len(p) > rowFrameBytes+64 || len(p) > journal.MaxRecordBytes/16 {
			t.Fatalf("row frame of %d bytes", len(p))
		}
		if err := decodeRow(p, func(uint64, Sample) error { cells++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if rows < 2 || cells != ents*minutes {
		t.Fatalf("%d row frames holding %d cells, want several holding %d", rows, cells, ents*minutes)
	}
	checkSeries(t, "live", st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	checkSeries(t, "reopened", openStore(t, dir, Options{}), want)
}

// TestFailedCommitIsSticky closes the minute tier's segments under the
// store, so the next write fails the way a dead disk fails it. The
// failed commit must acknowledge nothing and index nothing, and must
// not be forgotten: appends, commits and compactions refuse with the
// same cause until the directory is reopened, reads of what memory
// holds go on, and the reopened store holds exactly the acked prefix.
func TestFailedCommitIsSticky(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	var acked, all []Sample
	for m := 0; m < BlockSamples; m++ {
		s := Sample{Minute: m, CPU: 0.5, Mem: 0.25}
		if err := st.Append("svc/a", s); err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
		if m == BlockSamples-1 {
			break // the failing commit carries the block's 64th sample: a row and a seal
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, s)
	}
	if err := st.segs[TierMinute].Close(); err != nil {
		t.Fatal(err)
	}
	cause := st.Commit()
	if !errors.Is(cause, os.ErrClosed) {
		t.Fatalf("commit on a closed descriptor: %v", cause)
	}
	for name, err := range map[string]error{
		"Commit":        st.Commit(),
		"Append":        st.Append("svc/a", Sample{Minute: BlockSamples}),
		"CompactBefore": st.CompactBefore(60),
	} {
		if err != cause {
			t.Fatalf("%s after a failed commit: %v, want the first failure %v", name, err, cause)
		}
	}
	if e := st.ents[0]; len(e.blocks) != 0 || e.n != BlockSamples {
		t.Fatalf("failed commit indexed %d blocks, %d samples left open", len(e.blocks), e.n)
	}
	if got := collect(t, st, "svc/a", 0, 1000); !slices.Equal(got, all) {
		t.Fatalf("poisoned store serves %d samples from memory, want %d", len(got), len(all))
	}
	if err := st.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("close of a poisoned store: %v", err)
	}
	re := openStore(t, dir, Options{})
	if got := collect(t, re, "svc/a", 0, 1000); !slices.Equal(got, acked) {
		t.Fatalf("reopen recovered %d samples, want exactly the %d acked", len(got), len(acked))
	}
	if err := re.Append("svc/a", all[BlockSamples-1]); err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(); err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}
}

// TestFailedCompactionChangesNothing closes the hour tier's segments
// under the store, so the next roll-up's write fails the way a dead disk
// fails it. The failed compaction must leave every tier as it
// was — its aggregates are applied only once written — so the stitched
// view still counts each minute once. A memory store runs the same
// compaction with nothing to fail.
func TestFailedCompactionChangesNothing(t *testing.T) {
	for _, disk := range []bool{true, false} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			dir := ""
			if disk {
				dir = t.TempDir()
			}
			st, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			const minutes = 3000
			for m := 0; m < minutes; m++ {
				if err := st.Append("svc/a", Sample{Minute: m, CPU: 0.5, Mem: 0.25}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.CompactBefore(1440); err != nil {
				t.Fatal(err)
			}
			if disk {
				if err := st.segs[TierHour].Close(); err != nil {
					t.Fatal(err)
				}
				if err := st.CompactBefore(2880); !errors.Is(err, os.ErrClosed) {
					t.Fatalf("compaction onto a closed descriptor: %v", err)
				}
			} else if err := st.CompactBefore(2880); err != nil {
				t.Fatal(err)
			}
			var buf SeriesBuf
			if err := st.ReadSeries("svc/a", 0, minutes, &buf); err != nil {
				t.Fatal(err)
			}
			total := len(buf.Minutes)
			for _, a := range append(buf.Days, buf.Hours...) {
				total += a.N
			}
			if total != minutes {
				t.Fatalf("stitched view covers %d samples, want %d", total, minutes)
			}
		})
	}
}

// TestCommitMetrics pins the latency families: one commit observation
// per Commit that wrote (none for a no-op), one sync observation per
// fsync, and row frames counted beside sealed blocks.
func TestCommitMetrics(t *testing.T) {
	st, err := Open(t.TempDir(), Options{}) // NoSync off: this store fsyncs
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	st.Instrument(reg)
	for m := 0; m < BlockSamples; m++ {
		if err := st.Append("svc/a", Sample{Minute: m}); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil { // nothing staged: not observed
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for series, want := range map[string]float64{
		MetricCommit + "_count":          BlockSamples,
		MetricSync + "_count":            BlockSamples + 1, // the first commit also syncs the dictionary
		MetricBlocks + `{kind="row"}`:    BlockSamples,
		MetricBlocks + `{kind="sealed"}`: 1,
		MetricSegments + `{tier="min"}`:  1,
	} {
		if got, ok := snap[series]; !ok || got != want {
			var have []string
			for k := range snap {
				if strings.HasPrefix(k, "autoglobe_archive") && !strings.Contains(k, "_bucket") {
					have = append(have, k)
				}
			}
			t.Fatalf("%s = %v, want %v (have %v)", series, got, want, have)
		}
	}
}

// TestRowDecodeRejectsUnknownEntity covers the one row check that needs
// a store: a well-formed cell whose id is past the dictionary fails the
// open with ErrBadRecord instead of indexing out of range.
func TestRowDecodeRejectsUnknownEntity(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	if err := st.Append("svc/a", Sample{Minute: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	row := appendRowCell(appendRowHeader(nil, 2), 2, 1, Sample{Minute: 2}) // id 1: the dictionary holds only 0
	f, err := os.OpenFile(filepath.Join(dir, "min-00000000.seg"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(journal.AppendFrame(nil, row)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("open with a cell past the dictionary: %v, want ErrBadRecord", err)
	}
}
