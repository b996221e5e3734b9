package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"vcalab"
)

var update = flag.Bool("update", false, "rewrite testdata/output_digests.txt from this build's output")

const digestFile = "testdata/output_digests.txt"

// TestOutputDigests pins experiment output across refactors: the SHA-256
// of what `vcabench -quick -reps 1 -seed 1` prints for every canned
// dynamic scenario x VCA with recovery off and on, and for the impairment
// sweep with recovery on, must equal the checked-in digest. A packet-path
// change that is meant to keep output byte-identical must leave
// testdata/output_digests.txt untouched; one that is meant to change it
// regenerates the file with
//
//	go test ./cmd/vcabench -run TestOutputDigests -update
//
// so the change shows up as a reviewed diff.
func TestOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 33 quick-grid experiments")
	}
	defer func(q bool, r int, s int64, rec string) {
		*quick, *reps, *seed, *recovery = q, r, s, rec
	}(*quick, *reps, *seed, *recovery)
	*quick, *reps, *seed = true, 1, 1

	var keys []string
	got := map[string]string{}
	record := func(key string, out *bytes.Buffer) {
		keys = append(keys, key)
		got[key] = fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
	}
	for _, rec := range []string{"off", "on"} {
		*recovery = rec
		for _, p := range threeVCAs() {
			for _, name := range vcalab.CannedScenarioNames() {
				var out bytes.Buffer
				vcalab.PrintDynamic(&out, vcalab.RunDynamic(dynamicConfig(p, name)))
				record(fmt.Sprintf("dynamic/%s/%s/recovery=%s", p.Name, name, rec), &out)
			}
		}
	}
	for _, p := range threeVCAs() {
		var out bytes.Buffer
		vcalab.PrintImpairment(&out, vcalab.RunImpairment(impairmentConfig(p)))
		record(fmt.Sprintf("impairment/%s/recovery=on", p.Name), &out)
	}

	if *update {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), digestFile)
		return
	}

	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: no checked-in digest (run with -update)", k)
		case w != got[k]:
			t.Errorf("%s: output changed: sha256 %s, checked in %s", k, got[k], w)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("%s: checked-in digest for an output this build no longer produces", k)
	}
}
