package rules

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"autoglobe/internal/fuzzy"
)

// testVocab accepts action-ish names with a tiny vocabulary and
// "select/"-prefixed names with a score vocabulary.
func testVocab(name string) *fuzzy.Vocabulary {
	if name == "rejected" {
		return nil
	}
	v := fuzzy.NewVocabulary()
	v.Add(fuzzy.StandardLoad("cpuLoad"))
	if strings.HasPrefix(name, "select/") {
		v.Add(fuzzy.Applicability("score"))
	} else {
		v.Add(fuzzy.Applicability("scaleOut"))
	}
	return v
}

const goodSrc = "IF cpuLoad IS high THEN scaleOut IS applicable\n"
const goodSrc2 = "IF cpuLoad IS medium THEN scaleOut IS applicable\n"
const goodSelSrc = "IF cpuLoad IS low THEN score IS applicable\n"

func TestPutVersionsAndHash(t *testing.T) {
	r := New(testVocab)
	e1, err := r.putVersion("serviceOverloaded", 1, goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e1.Hash != hash(goodSrc) || e1.Base == nil {
		t.Fatalf("entry = %+v", e1)
	}
	e2, err := r.putVersion("serviceOverloaded", 2, goodSrc2)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Hash == e1.Hash {
		t.Fatal("two sources share a hash")
	}
	// A stored base names its rules under its version.
	if id := e2.Base.ID(0); id != (fuzzy.RuleID{Base: "serviceOverloaded", Version: 2, Index: 0}) || e1.Base.Version != 1 {
		t.Fatalf("rule id %+v, first base version %d", id, e1.Base.Version)
	}
}

func TestPutRejectsBadSource(t *testing.T) {
	r := New(testVocab)
	cases := map[string]string{
		"parse error":      "IF broken",
		"unknown variable": "IF nosuchvar IS high THEN scaleOut IS applicable",
		"unknown term":     "IF cpuLoad IS enormous THEN scaleOut IS applicable",
		"empty":            "# nothing here\n",
	}
	for what, src := range cases {
		if _, err := r.putVersion("serviceOverloaded", 1, src); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if _, err := r.putVersion("rejected", 1, goodSrc); err == nil {
		t.Error("name with no vocabulary accepted")
	}
	if _, err := r.putVersion("bad name", 1, goodSrc); err == nil {
		t.Error("name with whitespace accepted")
	}
	if _, err := r.putVersion("serviceOverloaded", 0, goodSrc); err == nil {
		t.Error("version 0 accepted")
	}
	if len(r.List()) != 0 {
		t.Errorf("rejected sources left entries behind: %v", r.List())
	}
}

func TestActivateAndGet(t *testing.T) {
	r := New(testVocab)
	if _, ok := r.Active("serviceOverloaded"); ok {
		t.Fatal("empty registry has an active version")
	}
	r.putVersion("serviceOverloaded", 1, goodSrc)
	r.putVersion("serviceOverloaded", 2, goodSrc2)
	// Storing does not activate.
	if _, ok := r.Active("serviceOverloaded"); ok {
		t.Fatal("put activated implicitly")
	}
	if err := r.activate("serviceOverloaded", 99); err == nil {
		t.Fatal("activated a version that was never put")
	}
	if err := r.activate("serviceOverloaded", 2); err != nil {
		t.Fatal(err)
	}
	a, ok := r.Active("serviceOverloaded")
	if !ok || a.Version != 2 || a.Hash != hash(goodSrc2) {
		t.Fatalf("active = %+v", a)
	}
	if err := r.activate("serviceOverloaded", 1); err != nil {
		t.Fatal(err)
	}
	if a, _ := r.Active("serviceOverloaded"); a.Version != 1 {
		t.Fatalf("active after activating version 1 = %+v", a)
	}
}

func TestPutVersionReplay(t *testing.T) {
	r := New(testVocab)
	if e, err := r.putVersion("serviceOverloaded", 3, goodSrc); err != nil || e.Base.Version != 3 {
		t.Fatalf("stored entry %+v, %v: want its base at version 3", e, err)
	}
	// Same version, same hash: idempotent.
	if _, err := r.putVersion("serviceOverloaded", 3, goodSrc); err != nil {
		t.Fatal(err)
	}
	// Same version, different content: corruption.
	if _, err := r.putVersion("serviceOverloaded", 3, goodSrc2); err == nil {
		t.Fatal("conflicting replay accepted")
	}
	// Out-of-order inserts keep versions sorted.
	if _, err := r.putVersion("serviceOverloaded", 1, goodSrc2); err != nil {
		t.Fatal(err)
	}
	refs := r.List()
	if len(refs) != 2 || refs[0].Version != 1 || refs[1].Version != 3 {
		t.Fatalf("List = %+v", refs)
	}
}

func TestListAndActiveRefs(t *testing.T) {
	r := New(testVocab)
	r.putVersion("serviceOverloaded", 1, goodSrc)
	r.putVersion("select/placement", 1, goodSelSrc)
	r.activate("select/placement", 1)
	refs := r.List()
	if len(refs) != 2 {
		t.Fatalf("List = %+v", refs)
	}
	if refs[0].Name != "select/placement" || !refs[0].Active || refs[0].Rules != 1 {
		t.Fatalf("refs[0] = %+v", refs[0])
	}
	if refs[1].Name != "serviceOverloaded" || refs[1].Active {
		t.Fatalf("refs[1] = %+v", refs[1])
	}
}

func TestDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	files := []struct {
		name    string
		version int
		src     string
	}{
		{"serviceOverloaded", 1, goodSrc},
		{"serviceOverloaded", 2, goodSrc2},
		{"select/placement", 1, goodSelSrc},
	}
	for _, f := range files {
		path := filepath.Join(dir, filepath.FromSlash(f.name)+"@v"+strconv.Itoa(f.version)+fileExt)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(f.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The selection base landed in a subdirectory.
	if _, err := os.Stat(filepath.Join(dir, "select", "placement@v1.rules")); err != nil {
		t.Fatal(err)
	}

	r2 := New(testVocab)
	loaded, err := r2.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Fatalf("loaded %d entries, want 3: %+v", len(loaded), loaded)
	}
	// Highest version of each name is active after a plain load.
	a, ok := r2.Active("serviceOverloaded")
	if !ok || a.Version != 2 || a.Hash != hash(goodSrc2) {
		t.Fatalf("active after load = %+v", a)
	}
	if a, ok := r2.Active("select/placement"); !ok || a.Version != 1 {
		t.Fatalf("selection active after load = %+v", a)
	}
	// Sources survived byte-identically: every version hashes as its file.
	for _, ref := range r2.List() {
		for _, f := range files {
			if f.name == ref.Name && f.version == ref.Version && ref.Hash != hash(f.src) {
				t.Fatalf("%s@v%d hashes %s, want its file's %s", ref.Name, ref.Version, ref.Hash, hash(f.src))
			}
		}
	}
	// The returned refs carry the activation outcome — callers route
	// active bases into swap points off these refs alone.
	for _, ref := range loaded {
		wantActive := ref.Name == "select/placement" || ref.Version == 2
		if ref.Active != wantActive {
			t.Errorf("loaded ref %s@v%d Active=%v, want %v", ref.Name, ref.Version, ref.Active, wantActive)
		}
	}
}

func TestLoadDirMissingAndBad(t *testing.T) {
	r := New(testVocab)
	loaded, err := r.LoadDir(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || len(loaded) != 0 {
		t.Fatalf("missing dir: loaded=%v err=%v", loaded, err)
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "noversion.rules"), []byte(goodSrc), 0o644)
	if _, err := New(testVocab).LoadDir(dir); err == nil {
		t.Fatal("file without @v<version> accepted")
	}
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "serviceOverloaded@v1.rules"), []byte("IF broken"), 0o644)
	if _, err := New(testVocab).LoadDir(dir2); err == nil {
		t.Fatal("unparseable rule file accepted")
	}
}

func TestValidateDoesNotStore(t *testing.T) {
	r := New(testVocab)
	if _, err := r.Validate("serviceOverloaded", goodSrc); err != nil {
		t.Fatal(err)
	}
	if len(r.List()) != 0 {
		t.Fatal("Validate stored an entry")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New(testVocab)
	r.putVersion("serviceOverloaded", 1, goodSrc)
	r.activate("serviceOverloaded", 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.putVersion("serviceOverloaded", 2, goodSrc2)
			r.activate("serviceOverloaded", 2)
			r.activate("serviceOverloaded", 1)
		}
	}()
	for i := 0; i < 200; i++ {
		if _, ok := r.Active("serviceOverloaded"); !ok {
			t.Error("active version vanished")
		}
		r.List()
	}
	<-done
}
