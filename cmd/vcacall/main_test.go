package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
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
		{"-down", "-0.5"},
		{"-down", "NaN"},
	} {
		var out, errw bytes.Buffer
		code := run(&out, &errw, []string{"-vca", "meet", c.flag, c.value})
		if code != 2 || out.Len() != 0 || !strings.Contains(errw.String(), c.flag) {
			t.Errorf("%s %s: exit %d, %d bytes on stdout, stderr %q; want 2, none, and the flag named",
				c.flag, c.value, code, out.Len(), errw.String())
		}
	}
}
