package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRunMeetCall drives a 10 s Meet call through run. vcacall is one of
// the two getStats readers, and a missing RecordStats subscription is
// silent — the fps/qp/width columns just print zero — so every per-second
// row must carry outbound FPS and width, and the summary's rates must be
// positive.
func TestRunMeetCall(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-vca", "meet", "-dur", "10s"}); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	if len(rows) < 11 {
		t.Fatalf("%d rows for a 10 s call, want the header and one per second", len(rows))
	}
	for _, row := range rows[1:11] {
		fps, _ := strconv.ParseFloat(row[col["out_fps"]], 64)
		width, _ := strconv.Atoi(row[col["out_width"]])
		up, _ := strconv.ParseFloat(row[col["up_mbps"]], 64)
		if fps <= 0 || width <= 0 || up <= 0 {
			t.Errorf("row %v: out_fps %v, out_width %v, up_mbps %v; want all positive", row, fps, width, up)
		}
	}
	var name string
	var up, down float64
	if _, err := fmt.Sscanf(errw.String(), "%s mean up %f Mbps, down %f Mbps", &name, &up, &down); err != nil || up <= 0 || down <= 0 {
		t.Errorf("summary %q: up %v, down %v, err %v; want positive rates", errw.String(), up, down, err)
	}
}

func TestRunRejectsUnknownVCA(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-vca", "nope"}); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d with %d bytes on stdout, want 2 and none", code, out.Len())
	}
}

// TestRunRejectsBadFlags: a value the call cannot honour exits 2 with the
// flag named on stderr and nothing on stdout, instead of panicking in the
// call builder or silently running something else.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-n", "1"},
		{"-n", "0"},
		{"-mode", "bogus"},
		{"-dur", "-5s"},
		{"-dur", "0s"},
		{"-up", "-3"},
		{"-up", "NaN"},
		{"-up", "Inf"},
		{"-up", "1e303"}, // finite Mbps, infinite bps
		{"-down", "-0.5"},
		{"-down", "NaN"},
		{"-down", "+Inf"},
	} {
		var out, errw bytes.Buffer
		code := run(&out, &errw, []string{"-vca", "meet", c.flag, c.value})
		if code != 2 || out.Len() != 0 || !strings.Contains(errw.String(), c.flag) {
			t.Errorf("%s %s: exit %d, %d bytes on stdout, stderr %q; want 2, none, and the flag named",
				c.flag, c.value, code, out.Len(), errw.String())
		}
	}
}

// TestRunRejectsBadCaptureFlags: with -pcap and -trace given, a value the
// call cannot honour exits 2 with the flag named on stderr before either
// capture file is created, instead of leaving an empty or unshaped one.
func TestRunRejectsBadCaptureFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-dur", "-5s"},
		{"-dur", "0s"},
		{"-up", "-3"},
		{"-up", "NaN"},
		{"-down", "-0.5"},
		{"-down", "NaN"},
	} {
		dir := t.TempDir()
		pcapPath, tracePath := filepath.Join(dir, "c1.pcap"), filepath.Join(dir, "c1.jsonl")
		var out, errw bytes.Buffer
		code := run(&out, &errw, []string{"-vca", "meet", "-pcap", pcapPath, "-trace", tracePath, c.flag, c.value})
		if code != 2 || out.Len() != 0 || !strings.Contains(errw.String(), c.flag) {
			t.Errorf("%s %s: exit %d, %d bytes on stdout, stderr %q; want 2, none, and the flag named",
				c.flag, c.value, code, out.Len(), errw.String())
		}
		for _, path := range []string{pcapPath, tracePath} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s %s: %s exists (err %v); want no file created", c.flag, c.value, path, err)
			}
		}
	}
}

// pcapDigest is the SHA-256 of TestRunMeetTrace's pcap: every frame's
// Ethernet, IPv4, UDP and RTP header bytes for its seeded call.
const pcapDigest = "f0f78fd41bc3e4371887b143364cf1cee129a9089dd4edf746af60ffbf083041"

// TestRunMeetTrace drives a 10 s seeded Meet call through run with -pcap
// and -trace: the pcap must hold exactly the bytes pcapDigest pins, and
// although the engine traces every link of the lab, the trace's packet
// lines must name only C1's two bottleneck links, both of them, beside
// the call's decision lines.
func TestRunMeetTrace(t *testing.T) {
	dir := t.TempDir()
	pcapPath, tracePath := filepath.Join(dir, "c1.pcap"), filepath.Join(dir, "c1.jsonl")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-vca", "meet", "-up", "1", "-dur", "10s", "-seed", "42", "-pcap", pcapPath, "-trace", tracePath}); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	pcapBytes, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(pcapBytes)); sum != pcapDigest {
		t.Errorf("pcap of %d bytes has SHA-256 %s, want %s", len(pcapBytes), sum, pcapDigest)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	links := map[string]int{}
	decisions := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct{ Kind, Link string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if ev.Link == "" {
			decisions++
		} else {
			links[ev.Link]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 || links["bottleneck/up"] == 0 || links["bottleneck/down"] == 0 {
		t.Errorf("packet lines per link %v, want bottleneck/up and bottleneck/down only", links)
	}
	if decisions == 0 {
		t.Error("no decision lines: the call's CC and switch events are missing")
	}
}

// TestCaptureReadOnly: capture only watches. With -pcap and -trace on,
// stdout is byte-identical to the plain run and stderr opens with the
// same summary line, for a shaped 2-party call and a 5-party speaker one.
func TestCaptureReadOnly(t *testing.T) {
	for _, args := range [][]string{
		{"-vca", "zoom", "-up", "0.5", "-dur", "40s"},
		{"-vca", "meet", "-n", "5", "-mode", "speaker", "-dur", "40s"},
	} {
		var plain, plainErr bytes.Buffer
		if code := run(&plain, &plainErr, args); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, plainErr.String())
		}
		dir := t.TempDir()
		var out, errw bytes.Buffer
		captured := append(slices.Clip(args), "-pcap", filepath.Join(dir, "c1.pcap"), "-trace", filepath.Join(dir, "c1.jsonl"))
		if code := run(&out, &errw, captured); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", captured, code, errw.String())
		}
		if !bytes.Equal(out.Bytes(), plain.Bytes()) {
			t.Errorf("%v: stdout differs with capture on", args)
		}
		if !strings.HasPrefix(errw.String(), plainErr.String()) {
			t.Errorf("%v: stderr %q with capture on, want it to open with the plain run's %q", args, errw.String(), plainErr.String())
		}
	}
}

// TestTraceRingHolds60s pins the -trace ring's size: a 60 s two-party
// call of each main VCA traces whole, nothing fallen off the ring.
func TestTraceRingHolds60s(t *testing.T) {
	for _, vca := range []string{"meet", "zoom", "teams"} {
		var out, errw bytes.Buffer
		tracePath := filepath.Join(t.TempDir(), "c1.jsonl")
		if code := run(&out, &errw, []string{"-vca", vca, "-dur", "60s", "-trace", tracePath}); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", vca, code, errw.String())
		}
		if !strings.Contains(errw.String(), "(0 events fell off the ring)") {
			t.Errorf("%s: stderr %q, want 0 events fallen off the ring", vca, errw.String())
		}
	}
}

// TestRunPcapWriteFailure: a pcap that cannot be written whole fails the
// run with exit 1 and the file named, after the CSV is printed as usual.
func TestRunPcapWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"-vca", "meet", "-dur", "10s", "-pcap", "/dev/full"})
	if code != 1 || !strings.Contains(errw.String(), "/dev/full") || strings.Contains(errw.String(), "wrote") {
		t.Errorf("exit %d, stderr %q; want 1, /dev/full named, and no success line", code, errw.String())
	}
	if out.Len() == 0 {
		t.Error("no CSV on stdout: a capture failure must not cost the measurements")
	}
}
