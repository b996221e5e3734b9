package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunMeetTrace drives a 10 s Meet call through run with -trace: the
// pcap must hold packets, and although the engine traces every link of
// the lab, the trace's packet lines must name only C1's two bottleneck
// links, both of them, beside the call's decision lines.
func TestRunMeetTrace(t *testing.T) {
	dir := t.TempDir()
	pcapPath, tracePath := filepath.Join(dir, "c1.pcap"), filepath.Join(dir, "c1.jsonl")
	var errw bytes.Buffer
	if code := run(&errw, []string{"-vca", "meet", "-up", "1", "-dur", "10s", "-o", pcapPath, "-trace", tracePath}); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	if fi, err := os.Stat(pcapPath); err != nil || fi.Size() <= 24 { // 24 = the pcap file header
		t.Fatalf("pcap %v, err %v: want packets after the file header", fi, err)
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

// TestRunRejectsBadFlags: a value the capture cannot honour exits 2 with
// the flag named on stderr before any file is created, instead of writing
// an empty or unshaped capture. vcapcap prints nothing on stdout by
// construction (run has no stdout writer), so the pcap path not existing
// is the check that nothing ran.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-dur", "-5s"},
		{"-dur", "0s"},
		{"-up", "-3"},
		{"-up", "NaN"},
		{"-down", "-0.5"},
		{"-down", "NaN"},
	} {
		pcapPath := filepath.Join(t.TempDir(), "c1.pcap")
		var errw bytes.Buffer
		code := run(&errw, []string{"-vca", "meet", "-o", pcapPath, c.flag, c.value})
		if code != 2 || !strings.Contains(errw.String(), c.flag) {
			t.Errorf("%s %s: exit %d, stderr %q; want 2 and the flag named", c.flag, c.value, code, errw.String())
		}
		if _, err := os.Stat(pcapPath); !os.IsNotExist(err) {
			t.Errorf("%s %s: %s exists (err %v); want no file created", c.flag, c.value, pcapPath, err)
		}
	}
}
