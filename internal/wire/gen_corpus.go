//go:build ignore

// gen_corpus regenerates the checked-in seed corpus of FuzzEnvelopeDecode
// (testdata/fuzz/FuzzEnvelopeDecode): one valid frame per binary kind —
// the indexed heartbeat, the bare ack and the index ack included — plus
// the handcrafted malformed mutations. The seeds are defined once, in
// fuzz_test.go (fuzzSeeds), where the fuzz target adds them and
// TestFuzzCorpus checks the files against them; this program runs that
// test in write mode. Run from this directory:
//
//	go run gen_corpus.go
package main

import (
	"log"
	"os"
	"os/exec"
)

func main() {
	cmd := exec.Command("go", "test", "-count=1", "-run", "^TestFuzzCorpus$", ".")
	cmd.Env = append(os.Environ(), "WIRE_GEN_CORPUS=1")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		log.Fatal(err)
	}
}
