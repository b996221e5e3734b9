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
// dynamic scenario x VCA with recovery off and on, for the impairment
// sweep with recovery on, for the scale sweep per VCA (which must also be
// the same at -shards 1 and 2) and for each of the 17 ids of `-experiment
// all`, must equal the checked-in digest. A packet-path
// change that is meant to keep output byte-identical must leave
// testdata/output_digests.txt untouched; one that is meant to change it
// regenerates the file with
//
//	go test ./cmd/vcabench -run TestOutputDigests -update
//
// so the change shows up as a reviewed diff. A second pass over the 17
// `all` ids, the impairment sweep and the scale sweep at -shards 2 with
// -trace/-metrics capture on must print the same bytes again — capture is
// read-only for every experiment — and the two capture streams it writes
// are pinned as capture/trace and capture/metrics. The first `all` pass
// is paper_suite's grid at seed 1, so its typed results also carry the
// paper's claims (checkPaperClaims).
func TestOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 53 quick-grid experiments and 26 repeats of them")
	}
	defer func(q bool, r int, s int64, rec string, sh int) {
		*quick, *reps, *seed, *recovery, *shards = q, r, s, rec, sh
	}(*quick, *reps, *seed, *recovery, *shards)
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
	impairmentPass := func(record func(string, *bytes.Buffer)) {
		*recovery = "on"
		for _, p := range threeVCAs() {
			var out bytes.Buffer
			vcalab.PrintImpairment(&out, vcalab.RunImpairment(impairmentConfig(p)))
			record(fmt.Sprintf("impairment/%s/recovery=on", p.Name), &out)
		}
		*recovery = "off"
	}
	allPass := func(record func(string, *bytes.Buffer)) map[string]vcalab.FigureResults {
		res := map[string]vcalab.FigureResults{}
		for _, f := range vcalab.Figures() {
			var out bytes.Buffer
			res[f.ID] = f.Run(true, 1, 1, &out)
			record("all/"+f.ID, &out)
		}
		return res
	}
	scalePass := func(sh int, record func(string, *bytes.Buffer)) {
		*shards = sh
		for _, p := range threeVCAs() {
			var out bytes.Buffer
			vcalab.PrintScale(&out, vcalab.RunScale(scaleConfig(p)))
			record(fmt.Sprintf("scale/%s", p.Name), &out)
		}
		*shards = 1
	}
	// same asserts that a pass prints what the recorded pass printed.
	same := func(what string) func(string, *bytes.Buffer) {
		return func(key string, out *bytes.Buffer) {
			if sum := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); sum != got[key] {
				t.Errorf("%s: output %s (sha256 %s) differs from the recorded pass (%s)", key, what, sum, got[key])
			}
		}
	}
	impairmentPass(record)
	scalePass(1, record)
	scalePass(2, same("at -shards 2"))
	checkPaperClaims(t, allPass(record))

	// Capture on: a small ring keeps the pass cheap. Attaching, sampling
	// and flushing must leave every printed byte where it was, and the
	// trace and metrics streams — over the impairment sweep, the 17 `all`
	// ids and the scale sweep at -shards 2, whose boundary links deliver
	// on another shard's engine — are pinned by their own digests.
	traceSum, metricsSum := sha256.New(), sha256.New()
	vcalab.SetCapture(&vcalab.ObsConfig{Trace: true, Metrics: true, TraceCap: 1 << 10}, traceSum, metricsSum)
	impairmentPass(same("with capture on"))
	allPass(same("with capture on"))
	scalePass(2, same("with capture on at -shards 2"))
	if err := vcalab.SetCapture(nil, nil, nil); err != nil {
		t.Errorf("capture to a hash failed: %v", err)
	}
	keys = append(keys, "capture/trace", "capture/metrics")
	got["capture/trace"] = fmt.Sprintf("%x", traceSum.Sum(nil))
	got["capture/metrics"] = fmt.Sprintf("%x", metricsSum.Sum(nil))

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
