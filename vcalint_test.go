package vcalab_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// vcalint is the determinism lint (DESIGN.md §14), run by
// `go test -run 'Lint|OneSite' .`. In the packages whose output must
// replay byte-identically at any -parallel × -shards it flags:
//
//   - time.Now / time.Since / time.Until: simulation time is engine time;
//   - draws from math/rand's global source (rand.Intn, ...): a seeded
//     *rand.Rand and the constructors of private sources stay legal;
//   - select statements: case choice is runtime-random;
//   - go statements outside the shard workers' file;
//   - range over a map whose body has an observable effect (a call that
//     is neither a conversion nor a pure builtin, a send, go, defer): Go
//     randomizes map order, so effects ordered by it diverge between runs.
//
// It over-approximates effects (an unknown call might be pure) and cannot
// see map order laundered through a helper; both directions are safe.
// There is no suppression directive: a finding is fixed, not excused.

// deterministic lists the module-relative package trees the lint covers.
var deterministic = []string{
	"internal/sim", "internal/vca", "internal/netem", "internal/cascade",
	"internal/scenario", "internal/experiment", "internal/rtp", "internal/cc",
}

// blessedGo is the one file where goroutines start: the shard workers,
// synchronized by the conservative barrier protocol (DESIGN.md §12).
const blessedGo = "internal/sim/shard.go"

// TestLintTree is the gate: the lint over the real module, failing on any
// finding.
func TestLintTree(t *testing.T) {
	for _, f := range lint(t, ".", deterministic) {
		t.Error(f)
	}
}

// TestLintFindings shows each determinism rule can fail: every case yields
// exactly the one finding it names ("" for none).
func TestLintFindings(t *testing.T) {
	lintCases(t, []lintCase{
		{"map range with a call", "for k := range m {\n\temit(k)\n}", "map iteration order is random"},
		{"map range with a send", "ch := make(chan string, 1)\nfor k := range m {\n\tch <- k\n}", "channel send"},
		{"map range, effect-free body", "n := 0\nfor k, v := range m {\n\tn = max(n+int(int64(v)), len(k))\n\tdelete(m, k)\n}\n_ = n", ""},
		{"slice range with a call", "for _, s := range []string{\"a\"} {\n\temit(s)\n}", ""},
		{"time.Now", "_ = time.Now()", "time.Now in deterministic package"},
		{"time.Since", "_ = time.Since(time.Time{})", "time.Since in deterministic package"},
		{"time.Until", "_ = time.Until(time.Time{})", "time.Until in deterministic package"},
		{"ignore comment is inert", "_ = time.Now() //vcalint:ignore determinism meter", "time.Now in deterministic package"},
		{"global rand", "_ = rand.Intn(6)", "rand.Intn draws from the process-global RNG"},
		{"seeded rand", "_ = rand.New(rand.NewSource(1)).Intn(6)", ""},
		{"select", "select {}", "select statement in deterministic package"},
		{"go statement", "go emit(\"x\")", "go statement outside internal/sim/shard.go"},
	})
}

// TestLintReportsFindings: outside any function too, a wall-clock read is
// reported at its file and line.
func TestLintReportsFindings(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"internal/netem/a.go": "package netem\n\nimport \"time\"\n\nvar T = time.Now()\n",
	})
	findings := lint(t, dir, []string{"internal/netem"})
	if len(findings) != 1 || findings[0].file != "internal/netem/a.go" || findings[0].line != 5 {
		t.Errorf("findings = %v, want one at internal/netem/a.go:5", findings)
	}
}

// TestLintUncoveredPackageSilent: a package outside the covered trees is
// never flagged, whatever it contains, even when a covered package imports
// it and the lint type-checks it.
func TestLintUncoveredPackageSilent(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"internal/apps/free.go": "package apps\n\nimport (\n\t\"math/rand\"\n\t\"time\"\n)\n\n" +
			"func WallClock() time.Duration { return time.Since(time.Now()) }\n\n" +
			"func GlobalRand() int { return rand.Intn(6) }\n\n" +
			"func Spawn(f func()) { go f() }\n",
		"internal/netem/uses.go": "package netem\n\nimport \"vcalab/internal/apps\"\n\nvar Roll = apps.GlobalRand\n",
	})
	if findings := lint(t, dir, []string{"internal/netem"}); len(findings) != 0 {
		t.Errorf("findings %v: want none outside the covered trees", findings)
	}
}

// lintCase is one function body, put in its own file of a covered package
// of a scratch module, and the one finding it must yield ("" for none).
type lintCase struct{ name, body, want string }

// lintCases lints the cases together, with the shard workers' file present
// as in the real tree, and checks each case's file alone yields its want.
func lintCases(t *testing.T, cases []lintCase) {
	t.Helper()
	file := func(i int) string { return fmt.Sprintf("internal/netem/case%02d.go", i) }
	files := map[string]string{
		"internal/netem/shared.go": "package netem\n\nvar m = map[string]int{}\n\nfunc emit(string) {}\n",
		blessedGo:                  "package sim\n\nfunc spawn(f func()) { go f() }\n",
	}
	for i, c := range cases {
		files[file(i)] = fmt.Sprintf("package netem\n\nimport (\n\t\"math/rand\"\n\t\"time\"\n)\n\n"+
			"var _ *rand.Rand\nvar _ time.Duration\n\nfunc case%02d() {\n%s\n}\n", i, c.body)
	}
	findings := lint(t, scratchModule(t, files), []string{"internal/netem", "internal/sim"})
	got := map[string][]string{}
	for _, f := range findings {
		got[f.file] = append(got[f.file], f.msg)
	}
	wantFindings := 0
	for i, c := range cases {
		msgs := got[file(i)]
		if c.want != "" {
			wantFindings++
		}
		if (c.want == "") != (len(msgs) == 0) || len(msgs) > 1 || len(msgs) == 1 && !strings.Contains(msgs[0], c.want) {
			t.Errorf("%s: findings %q, want %q", c.name, msgs, c.want)
		}
	}
	if len(findings) != wantFindings {
		t.Errorf("%d findings, want %d: %v", len(findings), wantFindings, findings)
	}
}

// scratchModule writes a module named vcalab holding files (relative path
// to source) and returns its root.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module vcalab\n"
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// finding is one lint result, positioned relative to the linted module root.
type finding struct {
	file string
	line int
	msg  string
}

func (f finding) String() string { return fmt.Sprintf("%s:%d: %s", f.file, f.line, f.msg) }

// lint type-checks from source every package under trees of the module
// (path vcalab) rooted at root, and returns its findings.
func lint(t *testing.T, root string, trees []string) []finding {
	t.Helper()
	im := &srcImporter{fset: token.NewFileSet(), root: root, pkgs: map[string]*types.Package{}}
	var findings []finding
	for _, dir := range packageDirs(t, root, trees) {
		files, err := im.parseDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, dir)
		path := "vcalab/" + filepath.ToSlash(rel)
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: im}).Check(path, im.fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		for _, f := range files {
			rel, _ := filepath.Rel(root, im.fset.File(f.Pos()).Name())
			findings = append(findings, check(im.fset, info, f, filepath.ToSlash(rel))...)
		}
	}
	return findings
}

// packageDirs returns every directory under trees holding non-test Go
// files, skipping testdata and hidden directories. A missing tree fails.
func packageDirs(t *testing.T, root string, trees []string) []string {
	t.Helper()
	var dirs []string
	for _, tree := range trees {
		err := filepath.WalkDir(filepath.Join(root, tree), func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") &&
				!slices.Contains(dirs, filepath.Dir(p)):
				dirs = append(dirs, filepath.Dir(p))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// check returns the determinism findings in f, in source order.
func check(fset *token.FileSet, info *types.Info, f *ast.File, file string) []finding {
	var out []finding
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, finding{file, fset.Position(n.Pos()).Line, fmt.Sprintf(format, args...)})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if what, at := firstEffect(info, n.Body); what != "" {
						report(n, "map iteration order is random and this body has observable effects (%s at line %d): iterate a deterministic order list",
							what, fset.Position(at).Line)
					}
				}
			}
		case *ast.SelectorExpr:
			if msg := globalState(info, n); msg != "" {
				report(n, "%s", msg)
			}
		case *ast.SelectStmt:
			report(n, "select statement in deterministic package: case choice is runtime-random")
		case *ast.GoStmt:
			if file != blessedGo {
				report(n, "go statement outside %s: deterministic code is single-threaded per engine", blessedGo)
			}
		}
		return true
	})
	return out
}

// globalState describes a reference to the wall clock or to a draw from
// math/rand's global source, or returns "". Methods, such as a seeded
// *rand.Rand's Intn, are never flagged.
func globalState(info *types.Info, sel *ast.SelectorExpr) string {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return ""
	}
	switch name := fn.Name(); fn.Pkg().Path() {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			return "time." + name + " in deterministic package: use the engine clock (Engine.Now)"
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		default:
			return "rand." + name + " draws from the process-global RNG: use a seeded *rand.Rand (e.g. Engine.Rand)"
		}
	}
	return ""
}

// pureBuiltins never make an iteration order observable.
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true, "delete": true,
	"real": true, "imag": true, "complex": true, "panic": true,
}

// firstEffect describes the first effectful construct in body and returns
// its position, or "".
func firstEffect(info *types.Info, body *ast.BlockStmt) (what string, at token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if info.Types[n.Fun].IsType() {
				return true // conversion
			}
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if b, ok := info.Uses[fun].(*types.Builtin); ok && pureBuiltins[b.Name()] {
					return true
				}
				what = "call to " + fun.Name
			case *ast.SelectorExpr:
				what = "call to " + fun.Sel.Name
			default:
				what = "call to function value"
			}
		case *ast.SendStmt:
			what = "channel send"
		case *ast.GoStmt:
			what = "go statement"
		case *ast.DeferStmt:
			what = "defer"
		default:
			return true
		}
		at = n.Pos()
		return false
	})
	return what, at
}

// srcImporter type-checks imports from source, exported API only:
// vcalab/... below the module root, everything else below GOROOT/src. It
// needs no build cache and no network.
type srcImporter struct {
	fset *token.FileSet
	root string
	pkgs map[string]*types.Package // nil while being checked
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return pkg, nil
	}
	im.pkgs[path] = nil
	dir := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(path))
	if rel, ok := strings.CutPrefix(path, "vcalab"); ok && (rel == "" || rel[0] == '/') {
		dir = filepath.Join(im.root, filepath.FromSlash(rel))
	}
	files, err := im.parseDir(dir)
	if err != nil {
		return nil, err
	}
	// Stdlib internals may use intrinsics the type checker rejects; their
	// exported API still loads, so errors are dropped.
	conf := types.Config{Importer: im, IgnoreFuncBodies: true, FakeImportC: true, Error: func(error) {}}
	pkg, _ := conf.Check(path, im.fset, files, nil)
	im.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the build-constraint-selected non-test files of dir.
func (im *srcImporter) parseDir(dir string) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// oneSite lists the decisions the tree makes in exactly one place, so a
// second site is the fork coming back: sel is "pkg.Name" or ".Field",
// counted over the non-test files matching the globs (relative to the
// module root) — occurrences, or files containing one when perFile is set.
var oneSite = []struct {
	why     string
	globs   []string
	sel     string
	perFile bool
	max     int
}{
	{"every runner goes through sweep.go's one runner.Map call (DESIGN.md §5)",
		[]string{"internal/experiment/*.go"}, "runner.Map", true, 1},
	{"the client reads MediaMode once, where newClient builds its encoder (DESIGN.md §8)",
		[]string{"internal/vca/client*.go", "internal/vca/obs.go"}, ".MediaMode", false, 1},
	{"sharded execution is reached only through cascade.NewTrial (DESIGN.md §12)",
		[]string{"internal/experiment/*.go", "internal/scenario/*.go", "cmd/*/*.go"}, "sim.NewGroup", false, 0},
	{"sharded execution is reached only through cascade.NewTrial (DESIGN.md §12)",
		[]string{"internal/experiment/*.go", "internal/scenario/*.go", "cmd/*/*.go"}, "sim.Group", false, 0},
	{"a component records into its engine's tracer and holds none of its own (DESIGN.md §11)",
		[]string{"internal/netem/*.go", "internal/vca/*.go", "internal/scenario/*.go", "internal/cascade/*.go"}, ".tracer", false, 0},
	{"the `tc` re-shape (a new rate, the queue resized for it) is written once, in scenario's applyShape (DESIGN.md §9)",
		[]string{"internal/experiment/*.go", "internal/cascade/*.go", "internal/scenario/*.go"}, ".SetQueueBytes", false, 1},
	{"a link pauses mid-call only as a timeline event, in scenario's applyShape (DESIGN.md §10)",
		[]string{"internal/*/*.go", "cmd/*/*.go", "*.go"}, ".SetPaused", true, 1},
	{"the CLIs build the §2.2 call through vcalab.NewLabCall (DESIGN.md §5)",
		[]string{"cmd/*/*.go"}, "vcalab.NewLab", false, 0},
	{"the CLIs build the §2.2 call through vcalab.NewLabCall (DESIGN.md §5)",
		[]string{"cmd/*/*.go"}, "vcalab.NewCall", false, 0},
}

func TestOneSite(t *testing.T) {
	for _, rule := range oneSite {
		var sites []string
		for _, g := range rule.globs {
			files, err := filepath.Glob(filepath.FromSlash(g))
			if err != nil || len(files) == 0 {
				t.Fatalf("%s: glob %q matches no file (%v): the rule checks nothing", rule.why, g, err)
			}
			for _, file := range files {
				if strings.HasSuffix(file, "_test.go") {
					continue
				}
				hits := selectorSites(t, file, rule.sel)
				if rule.perFile && len(hits) > 1 {
					hits = hits[:1]
				}
				sites = append(sites, hits...)
			}
		}
		if len(sites) > rule.max {
			t.Errorf("%s: %d sites of %s, want at most %d:\n\t%s",
				rule.why, len(sites), rule.sel, rule.max, strings.Join(sites, "\n\t"))
		}
	}
}

// selectorSites returns the position of every selector expression in file
// that reads sel.
func selectorSites(t *testing.T, file, sel string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	x, name, _ := strings.Cut(sel, ".")
	var sites []string
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == name {
			if id, _ := s.X.(*ast.Ident); x == "" || (id != nil && id.Name == x) {
				sites = append(sites, fset.Position(s.Pos()).String())
			}
		}
		return true
	})
	return sites
}

// censusTypes names the option types the census covers beyond every
// exported struct type whose name ends in Config or Options.
var censusTypes = map[string]bool{"vca.Profile": true, "cascade.Topology": true, "cascade.Region": true}

// wantOptions is every exported field of the option types under internal/,
// per "package.Type". A field with one value in use is a constant instead
// (DESIGN.md §6); a new option is a reviewed edit of this table.
var wantOptions = map[string][]string{
	"cascade.Region":               {"Name", "Clients"},
	"cascade.Topology":             {"Regions", "Default"},
	"cc.GCCConfig":                 {"Range", "LossHigh"},
	"cc.TeamsConfig":               {"Range", "LossBackoff", "DelayBackoff", "BackoffFactor", "RampInitBpsPerSec", "RampMaxBpsPerSec"},
	"cc.ZoomConfig":                {"Range", "NominalBps"},
	"experiment.CompetitionConfig": {"Incumbent", "Kind", "CompProfile", "LinkMbps", "Reps", "Seed", "CallDur", "CompAt", "CompDur", "ShareLo", "ShareHi"},
	"experiment.DisruptionConfig":  {"Profile", "Dir", "LevelMbps", "Reps", "Seed", "CallDur", "DropAt", "DropLen"},
	"experiment.DynamicConfig":     {"Profile", "Scenario", "Participants", "Regions", "InterMbps", "Reps", "Dur", "Warmup", "Seed", "Shards", "Recovery", "Obs", "TraceW", "MetricsW"},
	"experiment.FuzzConfig":        {"N", "Seed", "Participants", "Regions", "InterMbps", "Dur", "Shards", "Recovery"},
	"experiment.ImpairmentConfig":  {"Profile", "LossPcts", "Jitter", "Reps", "Dur", "Warmup", "Seed", "Recovery"},
	"experiment.ModalityConfig":    {"Profile", "N", "Mode", "Reps", "Dur", "Warmup", "Seed"},
	"experiment.ObsConfig":         {"Trace", "Metrics", "Interval", "TraceCap"},
	"experiment.ScaleConfig":       {"Profile", "Participants", "Regions", "InterMbps", "Reps", "Dur", "Warmup", "Seed", "Shards", "Recovery"},
	"experiment.StaticConfig":      {"Profile", "Dir", "CapsMbps", "Reps", "Dur", "Warmup", "Seed"},
	"netem.BloatConfig":            {"Depth", "AQM"},
	"netem.GEConfig":               {"P", "R", "LossGood", "LossBad"},
	"netem.LinkConfig":             {"RateBps", "Delay", "QueueBytes", "LossProb", "Jitter"},
	"scenario.GenConfig":           {"Participants", "Regions", "InterBps", "Dur"},
	"tcp.Config":                   {"MSS", "AckSize"},
	"vca.CallOptions":              {"Mode", "Seed", "Recovery"},
	"vca.Profile":                  {"Name", "AudioBps", "VideoNominalBps", "NewClientCC", "NewServerCC", "MediaMode", "Ladder", "LowLadder", "SVCSplit", "SimLowCapBps", "SimMinHighBps", "ServerFECOverhead", "ThinZoneLow", "ThinZoneHigh", "TierBps", "GalleryTier", "VisibleTiles", "ForwardFactor", "SpeakerUplinkBps", "StallEvery", "StallDur"},
}

// TestOptionCensus holds the settable values of the option types to
// wantOptions: an unlisted field and a stale row both fail.
func TestOptionCensus(t *testing.T) {
	got := optionCensus(t)
	n := 0
	for _, typ := range slices.Sorted(maps.Keys(got)) {
		n += len(got[typ])
		if !slices.Equal(got[typ], wantOptions[typ]) {
			t.Errorf("%s has fields %q, wantOptions lists %q", typ, got[typ], wantOptions[typ])
		}
	}
	for _, typ := range slices.Sorted(maps.Keys(wantOptions)) {
		if got[typ] == nil {
			t.Errorf("wantOptions lists %s, which the tree no longer has: prune the table", typ)
		}
	}
	t.Logf("%d settable values in %d option types", n, len(got))
}

// optionCensus returns the exported fields, in declaration order, of every
// option type declared in the non-test files under internal/.
func optionCensus(t *testing.T) map[string][]string {
	t.Helper()
	got := map[string][]string{}
	for _, dir := range packageDirs(t, ".", []string{"internal"}) {
		for _, f := range parsePackage(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				typ := f.Name.Name + "." + ts.Name.Name
				if !ok || !(strings.HasSuffix(typ, "Config") || strings.HasSuffix(typ, "Options") || censusTypes[typ]) {
					return true
				}
				got[typ] = []string{}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							got[typ] = append(got[typ], id.Name)
						}
					}
				}
				return true
			})
		}
	}
	return got
}

// wantFacadeExports is how many names vcalab.go exports. A facade name
// stays while a program, test, example or bench/ file uses it, a user
// document tells users to use it, or a kept name exposes it (a kept
// function's parameter or result, a kept type's field or method, or the
// named values of a kept enum type). The count may only go down.
const wantFacadeExports = 138

// wantUnnamed is every exported top-level name ("pkg.Name") and method
// ("pkg.Type.Method") under internal/ that no Go file outside its package
// names: tests, examples, cmd/ and bench/ count, files in the package's
// own directory do not. A name is named where go/types resolves a use to
// it; a method, where a selector resolves to it or to an interface method
// its type implements, so a method that only shares its name with one
// called outside (Len, Reset, String) is listed. Most entries are names
// that only the package and its own tests use, or methods reached only
// implicitly (fmt's Stringer). A new entry is an exported name without an
// outside caller — unexport or delete it, or list it here; a stale entry
// fails until it is pruned.
var wantUnnamed = []string{
	"apps.IPerf", "apps.Netflix", "apps.YouTube",
	"cascade.Mesh.Placements",
	"cc.Fixed", "cc.Fixed.Name", "cc.GCC", "cc.GCC.Name", "cc.GCCConfig",
	"cc.TeamsCC", "cc.TeamsCC.Name", "cc.TeamsConfig", "cc.ZoomCC", "cc.ZoomCC.Name",
	"cc.ZoomConfig",
	"codec.Encoder", "codec.Encoder.Target", "codec.Ladder.ParamsFor",
	"codec.SVC", "codec.Simulcast", "codec.Source", "codec.Source.Complexity",
	"experiment.CompetitionLabel", "experiment.EventRecovery", "experiment.Lab.ResolveLink",
	"netem.Addr.String", "netem.CoDel", "netem.GilbertElliott.Lose", "netem.Handler",
	"netem.HandlerFunc.Deliver", "netem.Host.Deliver", "netem.Host.Handle", "netem.Link.Send",
	"netem.Packet.Release", "netem.PacketPool", "netem.PacketPool.Get", "netem.PacketPool.Live",
	"netem.Router.Deliver",
	"obs.DefaultTraceCap", "obs.EventKind.String", "obs.GaugeSample", "obs.HistSample",
	"obs.Histogram", "obs.MetricsLog.Len", "obs.Tracer.Len",
	"pcap.Frame", "pcap.HostIP", "pcap.Writer.WriteFrame", "pcap.Writer.WriteNetem",
	"rtp.ErrBadVersion", "rtp.ErrShortPacket", "rtp.Header.Marshal", "rtp.Header.MarshalSize",
	"rtp.Header.Unmarshal", "rtp.Packet.MarshalSize", "rtp.RTXBuffer", "rtp.RTXBuffer.Drain",
	"rtp.RTXEntry", "rtp.Version", "rtp.bufEntry.RTXSeq",
	"runner.Runner",
	"scenario.LinkKind", "scenario.Op", "scenario.OpLeave", "scenario.OpMode", "scenario.OpRejoin",
	"scenario.SpeakerFlip", "scenario.Timeline.Applied", "scenario.Timeline.Done",
	"scenario.TraceReplay", "scenario.Violation.String",
	"sim.Engine.NextKey", "sim.Engine.RunBefore", "sim.Engine.Step", "sim.Group.Live",
	"sim.Group.Pending", "sim.HandlerFunc.OnEvent", "sim.Ticker.OnEvent",
	"stats.Percentile", "stats.Series.RollingMedian", "stats.StdDev",
	"vca.AllocMsg", "vca.Call.String", "vca.Client.SetTierBps", "vca.Client.TierBps", "vca.FIRMsg",
	"vca.FeedbackMsg", "vca.MediaMode", "vca.MediaPacket.Info", "vca.ModeSVC", "vca.ModeSimulcast",
	"vca.ModeSingle", "vca.NackMsg", "vca.PortFeedback", "vca.PortMedia", "vca.PortSignal",
	"vca.RecoveryReceiverStats", "vca.Server", "vca.TWCCMsg", "vca.Tier", "vca.TierHigh",
	"vca.TierLow", "vca.TierMed", "vca.TierSpeaker", "vca.TierThumb", "vca.sinkAt.OnPacket",
}

// TestExportCensus pins the exported surface: the facade's size and the
// internal exports nothing outside their package names.
func TestExportCensus(t *testing.T) {
	if n := len(facadeExports(t)); n != wantFacadeExports {
		t.Errorf("vcalab.go exports %d names, wantFacadeExports is %d", n, wantFacadeExports)
	}
	got := unnamedExports(t)
	for _, name := range got {
		if !slices.Contains(wantUnnamed, name) {
			t.Errorf("%s is exported but named nowhere outside its package: unexport or delete it, or list it in wantUnnamed", name)
		}
	}
	for _, name := range wantUnnamed {
		if !slices.Contains(got, name) {
			t.Errorf("wantUnnamed lists %s, which is gone or now named outside its package: prune the list", name)
		}
	}
	if !slices.IsSorted(wantUnnamed) {
		t.Error("wantUnnamed is not sorted")
	}
	t.Logf("%d facade exports, %d internal exports named only inside their package", wantFacadeExports, len(got))
}

// facadeExports returns the exported top-level names of the root package.
func facadeExports(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, f := range parsePackage(t, ".") {
		for _, d := range f.Decls {
			names = append(names, declNames(d)...)
		}
	}
	return names
}

// unnamedExports returns, sorted, the exported top-level names and methods
// declared in the non-test files under internal/ that nothing in another
// directory of the repository names. Every package there is type-checked
// with its test files through srcImporter: a name counts as named where
// go/types resolves a use to it, and a method where a selector resolves to
// it, or to the method of an interface that its type or a pointer to it
// implements.
func unnamedExports(t *testing.T) []string {
	t.Helper()
	// declared maps each census entry to its declaring directory and, for
	// a method, its receiver type and name.
	type decl struct{ dir, recv, method string }
	declared := map[string]decl{}
	for _, dir := range packageDirs(t, ".", []string{"internal"}) {
		dir = filepath.ToSlash(dir)
		for _, f := range parsePackage(t, dir) {
			pkg := f.Name.Name
			for _, d := range f.Decls {
				for _, name := range declNames(d) {
					declared[pkg+"."+name] = decl{dir: dir}
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				typ := recv.(*ast.Ident).Name
				declared[pkg+"."+typ+"."+fd.Name.Name] = decl{dir, typ, fd.Name.Name}
			}
		}
	}
	named := map[string]bool{}
	// mark notes a use in dir of name, declared in pkg.
	mark := func(pkg *types.Package, name, dir string) {
		if rel, ok := strings.CutPrefix(pkg.Path(), "vcalab/"); ok && rel != dir {
			named[pkg.Name()+"."+name] = true
		}
	}
	// An interface method selected in dir names the methods that implement
	// it outside dir; ifaceUses holds them until every type is loaded.
	type ifaceUse struct {
		iface       *types.Interface
		method, dir string
	}
	var ifaceUses []ifaceUse
	im := &srcImporter{fset: token.NewFileSet(), root: ".", pkgs: map[string]*types.Package{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return nil
		case p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		dir, path := filepath.ToSlash(p), "vcalab"
		if p != "." {
			path += "/" + dir
		}
		// The package with its in-package tests, then its external tests.
		for _, unit := range []struct {
			path  string
			names []string
		}{{path, slices.Concat(bp.GoFiles, bp.TestGoFiles)}, {path + "_test", bp.XTestGoFiles}} {
			if len(unit.names) == 0 {
				continue
			}
			var files []*ast.File
			for _, name := range unit.names {
				f, err := parser.ParseFile(im.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			if _, err := (&types.Config{Importer: im}).Check(unit.path, im.fset, files, info); err != nil {
				return fmt.Errorf("type-checking %s: %v", unit.path, err)
			}
			for _, obj := range info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok || fn.Signature().Recv() == nil {
					if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						mark(obj.Pkg(), obj.Name(), dir)
					}
					continue
				}
				recv := fn.Origin().Signature().Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if iface, ok := recv.Underlying().(*types.Interface); ok {
					ifaceUses = append(ifaceUses, ifaceUse{iface, fn.Name(), dir})
				} else if n, ok := recv.(*types.Named); ok {
					mark(fn.Pkg(), n.Obj().Name()+"."+fn.Name(), dir)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range declared {
		if d.method == "" || named[name] {
			continue
		}
		pkg, err := im.Import("vcalab/" + d.dir)
		if err != nil {
			t.Fatal(err)
		}
		typ := pkg.Scope().Lookup(d.recv).Type()
		if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue // a generic type implements no interface uninstantiated
		}
		for _, u := range ifaceUses {
			if u.method == d.method && u.dir != d.dir &&
				(types.Implements(typ, u.iface) || types.Implements(types.NewPointer(typ), u.iface)) {
				named[name] = true
				break
			}
		}
	}
	var unnamed []string
	for name := range declared {
		if !named[name] {
			unnamed = append(unnamed, name)
		}
	}
	slices.Sort(unnamed)
	return unnamed
}

// parsePackage parses the non-test Go files of the package in dir.
func parsePackage(t *testing.T, dir string) []*ast.File {
	t.Helper()
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// declNames returns the exported names a top-level declaration binds;
// methods bind none.
func declNames(d ast.Decl) []string {
	var names []string
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.IsExported() {
			names = append(names, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					names = append(names, s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return names
}
