package tsdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// rowCell is one decoded cell of a row record.
type rowCell struct {
	id uint64
	s  Sample
}

// decodePayload decodes any segment record the way replay dispatches:
// rows through decodeRow, every other kind through decodeRecord.
func decodePayload(p []byte) (r record, cells []rowCell, err error) {
	if len(p) > 0 && p[0] == kRow {
		err = decodeRow(p, func(id uint64, s Sample) error {
			cells = append(cells, rowCell{id, s})
			return nil
		})
		return record{kind: kRow}, cells, err
	}
	r, err = decodeRecord(p, nil, nil)
	return r, nil, err
}

// corpusRow is a row as a commit writes it: a base minute, cells of
// several entities at and around it.
func corpusRow() []byte {
	b := appendRowHeader(nil, 1000)
	for _, c := range []rowCell{{0, Sample{1000, 0.5, 0.25}}, {300, Sample{1000, 1, 0}}, {70000, Sample{1063, 0.125, 0.75}}, {6, Sample{997, 0, 1}}} {
		b = appendRowCell(b, 1000, c.id, c.s)
	}
	return b
}

// corpusRecords is the happy half of the fuzz seed corpus — one valid
// payload per record kind — shared with the corpus regenerator.
func corpusRecords() map[string][]byte {
	blockSamples := make([]Sample, BlockSamples)
	for i := range blockSamples {
		blockSamples[i] = Sample{Minute: 100 + i, CPU: float64(i) / 64, Mem: float64(i) / 128}
	}
	return map[string][]byte{
		"seed-dict":  appendDictRecord(nil, 7, "svc/app-7"),
		"seed-block": appendBlockRecord(nil, TierMinute, 3, blockSamples),
		"seed-tail":  appendBlockRecord(nil, TierMinute, 3, blockSamples[:5]),
		"seed-agg": appendAggRecord(nil, TierHour, 2, []Agg{
			{Start: 60, N: 60, SumCPU: 30.5, SumMem: 15.25, MaxCPU: 0.9, MaxMem: 0.5},
			{Start: 120, N: 60, SumCPU: 28, SumMem: 14, MaxCPU: 0.8, MaxMem: 0.4},
		}),
		"seed-mark": appendMarkRecord(nil, TierMinute, 1440),
		"seed-row":  corpusRow(),
		// never written, but a header with no cell is a well-formed row
		"seed-row-empty": appendRowHeader(nil, 1000),
	}
}

// corpusMutations is the hostile half: truncations, lying counts, bad
// tiers and kinds — each must be rejected with ErrBadRecord, never a
// panic, never a partial parse.
func corpusMutations() map[string][]byte {
	recs := corpusRecords()
	blk := recs["seed-block"]
	clone := func(b []byte, mut func([]byte)) []byte {
		c := append([]byte(nil), b...)
		mut(c)
		return c
	}
	return map[string][]byte{
		"seed-empty":           {},
		"seed-bad-kind":        {0x7F},
		"seed-bad-tier":        clone(blk, func(b []byte) { b[1] = 9 }),
		"seed-truncated-block": blk[:len(blk)-7],
		"seed-trailing-bytes":  append(append([]byte(nil), blk...), 0xAA, 0xBB),
		// count says 64 samples but carries none past the header
		"seed-lying-count": blk[:4],
		// a count field far past maxBlockEntries must not drive allocation
		"seed-huge-count": {kBlock, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"seed-dict-lying-len": clone(recs["seed-dict"], func(b []byte) {
			b[2] = 0xFF // name length beyond the payload
		}),
		"seed-mark-truncated": recs["seed-mark"][:2],
		"seed-garbage":        []byte("not a record at all"),
		"seed-row-no-base":    {kRow},
		// a cell id whose varint never terminates
		"seed-row-truncated-varint": append(appendRowHeader(nil, 1000), 0x80, 0x80),
		// a cell cut inside its 16 value bytes
		"seed-row-short-values": recs["seed-row"][:len(recs["seed-row"])-1],
		// base + delta leaves the int range
		"seed-row-delta-overflow":  appendRowCell(appendRowHeader(nil, math.MaxInt64-1), 0, 1, Sample{Minute: 2}),
		"seed-row-delta-underflow": appendRowCell(appendRowHeader(nil, math.MinInt64+1), 0, 1, Sample{Minute: -2}),
	}
}

// FuzzRecordDecode is the native fuzz target for the segment record
// codec: whatever payload survives a CRC frame — torn compactions,
// bit rot, hostile files — the decoder must never panic, must reject
// structurally invalid records with ErrBadRecord, and for everything it
// accepts the encode→decode round trip must be semantically exact.
// Run with
//
//	go test -fuzz FuzzRecordDecode ./internal/tsdb
//
// The seed corpus (f.Add below plus testdata/fuzz/FuzzRecordDecode,
// regenerable via TestRegenerateFuzzCorpus with TSDB_GEN_CORPUS=1)
// doubles as a regression suite: a plain `go test` replays every seed.
func FuzzRecordDecode(f *testing.F) {
	for _, b := range corpusRecords() {
		f.Add(b)
	}
	for _, b := range corpusMutations() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		r, cells, err := decodePayload(p)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode back identically.
		var re []byte
		switch r.kind {
		case kRow:
			// Cells are relative to a base the decoder does not hand out;
			// any base within reach of every minute re-encodes them.
			base := 0
			if len(cells) > 0 {
				base = cells[0].s.Minute
			}
			re = appendRowHeader(nil, base)
			for _, c := range cells {
				if d := int64(c.s.Minute) - int64(base); (d < 0) != (c.s.Minute < base) {
					return // two cells further apart than one varint spans: no single base
				}
				re = appendRowCell(re, base, c.id, c.s)
			}
		case kDict:
			re = appendDictRecord(nil, r.id, r.name)
		case kBlock:
			re = appendBlockRecord(nil, r.tier, r.id, r.samples)
		case kAgg:
			re = appendAggRecord(nil, r.tier, r.id, r.aggs)
		case kMark:
			re = appendMarkRecord(nil, r.tier, r.mark)
		default:
			t.Fatalf("decoder accepted unknown kind %d", r.kind)
		}
		// Copy before the scratch buffers are reused by the re-decode.
		samples := append([]Sample(nil), r.samples...)
		aggs := append([]Agg(nil), r.aggs...)
		r2, cells2, err := decodePayload(re)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if len(cells2) != len(cells) {
			t.Fatalf("row round trip: %d cells, then %d", len(cells), len(cells2))
		}
		for i, c := range cells {
			if c2 := cells2[i]; c != c2 && !(c.id == c2.id && c.s.Minute == c2.s.Minute && isNaNSample(c.s) && isNaNSample(c2.s)) {
				t.Fatalf("cell %d diverges: %+v vs %+v", i, c, c2)
			}
		}
		if r2.kind != r.kind || r2.tier != r.tier || r2.id != r.id ||
			r2.name != r.name || r2.mark != r.mark ||
			len(r2.samples) != len(samples) || len(r2.aggs) != len(aggs) {
			t.Fatalf("round trip diverges: %+v vs %+v", r, r2)
		}
		for i := range samples {
			s1, s2 := samples[i], r2.samples[i]
			// Compare bit patterns via !=; NaN payloads legally differ
			// from themselves, so skip NaN-vs-NaN pairs.
			if s1 != s2 && !(isNaNSample(s1) && isNaNSample(s2)) {
				t.Fatalf("sample %d diverges: %+v vs %+v", i, s1, s2)
			}
		}
		for i := range aggs {
			a1, a2 := aggs[i], r2.aggs[i]
			if a1 != a2 && !(isNaNAgg(a1) && isNaNAgg(a2)) {
				t.Fatalf("agg %d diverges: %+v vs %+v", i, a1, a2)
			}
		}
	})
}

func isNaNSample(s Sample) bool { return s.CPU != s.CPU || s.Mem != s.Mem }
func isNaNAgg(a Agg) bool {
	return a.SumCPU != a.SumCPU || a.SumMem != a.SumMem || a.MaxCPU != a.MaxCPU || a.MaxMem != a.MaxMem
}

// TestFuzzSeedsReject pins the intent of each handcrafted mutation:
// rejected with an error, never a panic, never a partial parse.
func TestFuzzSeedsReject(t *testing.T) {
	for name, b := range corpusMutations() {
		if _, _, err := decodePayload(b); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: decoded with %v, want ErrBadRecord", name, err)
		}
	}
	for name, b := range corpusRecords() {
		if _, _, err := decodePayload(b); err != nil {
			t.Errorf("%s: valid record rejected: %v", name, err)
		}
	}
	if _, cells, _ := decodePayload(corpusRow()); len(cells) != 4 || cells[3] != (rowCell{6, Sample{997, 0, 1}}) {
		t.Errorf("seed-row decodes to %+v", cells)
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus from the
// shared seed definitions. Skipped unless TSDB_GEN_CORPUS=1 — run
//
//	TSDB_GEN_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/tsdb
//
// after changing the record format. (A build-tagged gen_corpus.go as in
// internal/wire would not work here: the record encoders are
// unexported, deliberately — the framed segment files are the public
// surface, not the payload codec.)
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("TSDB_GEN_CORPUS") != "1" {
		t.Skip("set TSDB_GEN_CORPUS=1 to rewrite testdata/fuzz/FuzzRecordDecode")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRecordDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for name, b := range corpusRecords() {
		write(name, b)
		n++
	}
	for name, b := range corpusMutations() {
		write(name, b)
		n++
	}
	t.Logf("wrote %d corpus files to %s", n, dir)
}
