package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func openT(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	for i := 0; i < 10; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, dir, Options{NoSync: true})
	defer j2.Close()
	snap, records := j2.Recovered()
	if snap != nil {
		t.Fatalf("unexpected snapshot %q", snap)
	}
	if len(records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(records))
	}
	for i, r := range records {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d = %q, want %q", i, r, rec(i))
		}
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Find the (only) non-empty segment and truncate it mid-record at
	// every possible byte offset between the 3rd and 4th boundary.
	seg := nonEmptySegment(t, dir)
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	_, boundaries := Frames(img)
	if len(boundaries) != 5 {
		t.Fatalf("segment has %d records, want 5", len(boundaries))
	}
	for cut := boundaries[2] + 1; cut < boundaries[3]; cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(seg)), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jr := openT(t, sub, Options{NoSync: true})
		_, records := jr.Recovered()
		if len(records) != 3 {
			t.Fatalf("cut at %d: recovered %d records, want 3 (stop at torn tail)", cut, len(records))
		}
		// Appends after reopen survive despite the torn predecessor: they
		// go to a fresh segment.
		if err := jr.Append([]byte("after-crash")); err != nil {
			t.Fatal(err)
		}
		jr.Close()
		jr2 := openT(t, sub, Options{NoSync: true})
		_, records = jr2.Recovered()
		if len(records) != 4 || string(records[3]) != "after-crash" {
			t.Fatalf("cut at %d: post-crash append lost: %d records", cut, len(records))
		}
		jr2.Close()
	}
}

func TestBitFlipStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	seg := nonEmptySegment(t, dir)
	img, _ := os.ReadFile(seg)
	_, boundaries := Frames(img)
	// Flip one payload bit inside the 4th record.
	img[boundaries[2]+headerSize] ^= 0x40
	if err := os.WriteFile(seg, img, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, dir, Options{NoSync: true})
	defer j2.Close()
	_, records := j2.Recovered()
	if len(records) != 3 {
		t.Fatalf("recovered %d records after bit flip, want 3", len(records))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("got %d segments, want rotation to create several", segs)
	}
	j2 := openT(t, dir, Options{NoSync: true})
	defer j2.Close()
	_, records := j2.Recovered()
	if len(records) != 20 {
		t.Fatalf("recovered %d records across segments, want 20", len(records))
	}
	for i, r := range records {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d = %q out of order", i, r)
		}
	}
}

func TestSnapshotPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true, SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("state-at-10")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2 := openT(t, dir, Options{NoSync: true})
	defer j2.Close()
	snap, records := j2.Recovered()
	if string(snap) != "state-at-10" {
		t.Fatalf("snapshot = %q, want state-at-10", snap)
	}
	if len(records) != 3 {
		t.Fatalf("recovered %d tail records, want 3", len(records))
	}
	for i, r := range records {
		if !bytes.Equal(r, rec(10+i)) {
			t.Fatalf("tail record %d = %q", i, r)
		}
	}
	// Pre-snapshot segments were pruned.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) || strings.HasSuffix(e.Name(), snapSuffix) {
			var n uint64
			fmt.Sscanf(strings.TrimLeft(e.Name(), "walsnp-"), "%08d", &n)
			if n < 3 && strings.HasSuffix(e.Name(), segSuffix) {
				img, _ := os.ReadFile(filepath.Join(dir, e.Name()))
				if len(img) > 0 {
					t.Fatalf("pre-snapshot segment %s survived with %d bytes", e.Name(), len(img))
				}
			}
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	j := openT(t, t.TempDir(), Options{NoSync: true})
	defer j.Close()
	if err := j.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
}

// TestFailedAppendIsSticky: a write that fails may leave a torn frame,
// and replay stops at a tear, so a record appended behind it would be
// acknowledged and then lost. Once a segment write fails, every later
// append and snapshot returns that first error, even after the segment
// would accept writes again.
func TestFailedAppendIsSticky(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	defer j.Close()
	if err := j.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(j.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rw := j.f
	j.f = ro
	first := j.Append(rec(1))
	j.f = rw
	if first == nil {
		t.Fatal("append through a read-only segment handle succeeded")
	}
	for name, err := range map[string]error{
		"Append":      j.Append(rec(2)),
		"AppendBatch": j.AppendBatch([][]byte{rec(3)}),
		"Snapshot":    j.Snapshot([]byte("state")),
	} {
		if !errors.Is(err, first) {
			t.Errorf("%s after a failed append = %v, want the first error %v", name, err, first)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, dir, Options{NoSync: true})
	defer j2.Close()
	if snap, records := j2.Recovered(); snap != nil || len(records) != 1 || !bytes.Equal(records[0], rec(0)) {
		t.Fatalf("recovered snapshot %q and %q, want only %q", snap, records, rec(0))
	}
}

func TestFramesRoundTrip(t *testing.T) {
	var img []byte
	for i := 0; i < 7; i++ {
		img = AppendFrame(img, rec(i))
	}
	payloads, boundaries := Frames(img)
	if len(payloads) != 7 || boundaries[len(boundaries)-1] != len(img) {
		t.Fatalf("round trip lost records: %d payloads, consumed %d of %d",
			len(payloads), boundaries[len(boundaries)-1], len(img))
	}
}

// nonEmptySegment returns the single segment file with content.
func nonEmptySegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), segSuffix) {
			continue
		}
		info, _ := e.Info()
		if info.Size() > 0 {
			if found != "" {
				t.Fatalf("multiple non-empty segments: %s and %s", found, e.Name())
			}
			found = filepath.Join(dir, e.Name())
		}
	}
	if found == "" {
		t.Fatal("no non-empty segment")
	}
	return found
}
