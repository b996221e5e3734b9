// Command vcalint runs vcalab's custom analyzer over the module:
// determinism (no wall clock, global RNG, select, stray goroutine or
// effectful map iteration in the packages whose output must be
// byte-identical at any -parallel × -shards). It has no deterministic
// dynamic twin; the invariants that do (pool ownership, allocation
// budgets, tracing that costs nothing when off) are held by tests
// instead. See DESIGN.md §14.
//
//	vcalint            # the whole module, same as ./...
//	vcalint ./internal/vca ./internal/sim/...
//	vcalint help
//
// TestTree in this directory runs exactly this over the real tree as
// part of `go test ./...`, and additionally holds the tree to a table
// of the suppressions it expects.
//
// Suppression: //vcalint:ignore <analyzer> <reason> on (or directly
// above) the offending line; //vcalint:file-ignore for whole files.
// Unknown analyzer names and missing reasons in directives are
// themselves findings.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"vcalab/internal/analysis"
	"vcalab/internal/analysis/determinism"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: arguments are package patterns, or
// the word help.
func run(args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		if a == "help" {
			usage(stdout)
			return 0
		}
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(stderr, "vcalint: unknown argument %q\n", a)
			usage(stderr)
			return 2
		}
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	findings, _, err := analysis.Run(".", args, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "vcalint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vcalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: vcalint [help | package patterns, default ./...]\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nsuppress with //vcalint:ignore <analyzer> <reason> (same or previous line)\nor //vcalint:file-ignore <analyzer> <reason> for a whole file.\n")
}
