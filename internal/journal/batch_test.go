package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendBatchReplayParity: a batch append must leave exactly the
// byte stream a sequence of single appends would — one frame per
// record, slice order — so recovery cannot tell how records were
// committed.
func TestAppendBatchReplayParity(t *testing.T) {
	single := t.TempDir()
	batched := t.TempDir()

	js := openT(t, single, Options{NoSync: true})
	jb := openT(t, batched, Options{NoSync: true})
	var payloads [][]byte
	for i := 0; i < 12; i++ {
		payloads = append(payloads, rec(i))
		if err := js.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jb.AppendBatch(payloads[:5]); err != nil {
		t.Fatal(err)
	}
	if err := jb.AppendBatch(payloads[5:]); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jb.Close(); err != nil {
		t.Fatal(err)
	}

	sb, err := os.ReadFile(onlySeg(t, single))
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(onlySeg(t, batched))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, bb) {
		t.Fatal("batched segment differs from singly-appended segment")
	}

	j2 := openT(t, batched, Options{NoSync: true})
	defer j2.Close()
	_, records := j2.Recovered()
	if len(records) != 12 {
		t.Fatalf("recovered %d records, want 12", len(records))
	}
	for i, r := range records {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d = %q, want %q", i, r, rec(i))
		}
	}
}

// TestAppendBatchEmptyAndOversize: an empty batch is a durable no-op;
// a batch containing any oversized record is rejected whole, before
// any byte reaches the log.
func TestAppendBatchEmptyAndOversize(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	defer j.Close()
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	big := make([]byte, MaxRecordBytes+1)
	if err := j.AppendBatch([][]byte{rec(0), big}); err == nil {
		t.Fatal("oversized record in batch accepted")
	}
	if _, records := reopenRecovered(t, j, dir); len(records) != 0 {
		t.Fatalf("rejected batch left %d records behind", len(records))
	}
}

// onlySeg returns the path of the directory's single segment file.
func onlySeg(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("got %d segments in %s, want 1", len(segs), dir)
	}
	return segs[0]
}

// reopenRecovered closes j and reopens the directory, returning the
// recovered state.
func reopenRecovered(t *testing.T, j *Journal, dir string) ([]byte, [][]byte) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, dir, Options{NoSync: true})
	t.Cleanup(func() { j2.Close() })
	return j2.Recovered()
}

// TestAppendBatchRotation: a batch that would overflow the segment
// rotates first and then lands whole in the fresh segment — a batch is
// never split across segment files.
func TestAppendBatchRotation(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true, SegmentBytes: 64})
	if err := j.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	batch := [][]byte{rec(1), rec(2), rec(3)}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2 (batch rotated into its own)", len(segs))
	}
	second, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := Frames(second)
	if len(payloads) != 3 {
		t.Fatalf("second segment holds %d records, want the whole 3-record batch", len(payloads))
	}
	j2 := openT(t, dir, Options{NoSync: true})
	defer j2.Close()
	_, records := j2.Recovered()
	if len(records) != 4 {
		t.Fatalf("recovered %d records across segments, want 4", len(records))
	}
}

// TestAppendBatchTornTailPrefix: a crash tearing the last frame of a
// batch recovers the batch's intact prefix and nothing else — the
// torn-batch contract any caller that batches records must design for.
func TestAppendBatchTornTailPrefix(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	if err := j.AppendBatch([][]byte{rec(0), rec(1), rec(2)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySeg(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	_, boundaries := Frames(data)
	if len(boundaries) != 3 {
		t.Fatalf("got %d frames, want 3", len(boundaries))
	}
	// Cut mid-way through the last frame.
	cut := (boundaries[1] + boundaries[2]) / 2
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, dir, Options{NoSync: true})
	defer j2.Close()
	_, records := j2.Recovered()
	if len(records) != 2 {
		t.Fatalf("recovered %d records from torn batch, want the 2-record prefix", len(records))
	}
	for i, r := range records {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d = %q, want %q", i, r, rec(i))
		}
	}
}
