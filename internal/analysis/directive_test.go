package analysis_test

import (
	"testing"

	"vcalab/internal/analysis/analysistest"
	"vcalab/internal/analysis/determinism"
)

// TestDirectives drives the suppression machinery end to end through
// testdata/src/dir: line and file-wide ignores silence real findings,
// while malformed and unknown-name directives surface as "vcalint"
// findings of their own.
func TestDirectives(t *testing.T) {
	determinism.Packages = append(determinism.Packages, "dir")
	defer func() { determinism.Packages = determinism.Packages[:len(determinism.Packages)-1] }()
	analysistest.Run(t, "testdata", determinism.Analyzer, "dir")
}
