package vcalab_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignCitationsResolve: every "DESIGN.md §N" cited from a .go file or
// from ci.yml names a section heading DESIGN.md has, so the document can
// be cut without stranding the comments that lean on it.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (§\d+) `).FindAllSubmatch(design, -1) {
		have[string(m[1])] = true
	}
	// A citation may wrap: "DESIGN.md\n// §14".
	cite := regexp.MustCompile(`DESIGN\.md[\s/#]*(§\d+)`)
	cited := 0
	check := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatch(src, -1) {
			cited++
			if !have[string(m[1])] {
				t.Errorf("%s cites DESIGN.md %s, which has no such heading", path, m[1])
			}
		}
	}
	check(filepath.Join(".github", "workflows", "ci.yml"))
	walkFiles(t, ".go", check)
	if cited == 0 || len(have) == 0 {
		t.Errorf("found %d citations and %d headings: the patterns no longer match", cited, len(have))
	}
}

// designMaxLines is DESIGN.md's budget: it says what the code does now and
// why, and the history of replaced designs lives in CHANGES.md.
const designMaxLines = 800

// TestDesignWithinBudget fails once DESIGN.md outgrows designMaxLines.
func TestDesignWithinBudget(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(design, []byte("\n")); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, want at most %d: move dated measurements and replaced designs to CHANGES.md", n, designMaxLines)
	}
}

// TestDocTestNamesResolve: every Test*, Fuzz*, Benchmark* or Example* name
// in code (inline or fenced) in the prose docs is a function some _test.go
// file declares, so a doc cannot send a reader to a test that was renamed
// or deleted. Names are spelled whole: `TestSteadyState{Call,Recovery}Mallocs`
// or `TestRetransmissions…` reads as a name no file declares.
func TestDocTestNamesResolve(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	walkFiles(t, "_test.go", func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
	})
	code := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)(?:[A-Z0-9_]\w*)?\b`)
	named := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range code.FindAll(src, -1) {
			for _, n := range name.FindAll(span, -1) {
				named++
				if !declared[string(n)] {
					t.Errorf("%s names %s, which no _test.go file declares", doc, n)
				}
			}
		}
	}
	if named == 0 || len(declared) == 0 {
		t.Errorf("found %d named tests and %d declared: the patterns no longer match", named, len(declared))
	}
}

// walkFiles calls fn on every file under the module root whose name ends
// in suffix, skipping dot-directories (.git, .bench_build's build cache).
func walkFiles(t *testing.T, suffix string, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, suffix):
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
