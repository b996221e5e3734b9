package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestFuzzCapture drives the built binary through `-fuzz 3 -quick -trace
// T -metrics M`. The run must exit 0. A metrics sampler left armed past
// the call's stop would keep the harness's drain from ever returning, so
// the run has a deadline. Each file must hold one "sweep":"fuzz" trial
// header per seed, and hold the same bytes at -parallel 1 and 4. Stdout
// must match the run without capture, since capture is read-only.
func TestFuzzCapture(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vcabench")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) []byte {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		args = append([]string{"-fuzz", "3", "-quick", "-progress=false"}, args...)
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("vcabench %v: %v\nstdout:\n%s\nstderr:\n%s", args, err, &stdout, &stderr)
		}
		return stdout.Bytes()
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	plain := run()
	var files [2][]byte // trace, metrics at -parallel 1
	for _, par := range []int{1, 4} {
		tr := filepath.Join(dir, fmt.Sprintf("trace%d.jsonl", par))
		m := filepath.Join(dir, fmt.Sprintf("metrics%d.jsonl", par))
		if out := run("-parallel", fmt.Sprint(par), "-trace", tr, "-metrics", m); !bytes.Equal(out, plain) {
			t.Errorf("-parallel %d: stdout with capture differs from the plain run:\n%s\nplain:\n%s", par, out, plain)
		}
		for i, path := range []string{tr, m} {
			data := read(path)
			if n := bytes.Count(data, []byte(`{"kind":"trial","sweep":"fuzz",`)); n != 3 {
				t.Errorf("%s: %d fuzz trial headers, want 3", filepath.Base(path), n)
			}
			if par == 1 {
				files[i] = data
			} else if !bytes.Equal(data, files[i]) {
				t.Errorf("%s differs from its -parallel 1 twin", filepath.Base(path))
			}
		}
	}
}
