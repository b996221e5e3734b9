package vcalab_test

import (
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
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, .bench_build's build cache
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			check(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 || len(have) == 0 {
		t.Errorf("found %d citations and %d headings: the patterns no longer match", cited, len(have))
	}
}
