package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuLayers are the layers self_cpu_s is reported for: the module's
// internal packages, then the Go runtime split into memory management
// and everything else (which also takes packages not listed here and
// the benchmark's own code).
var cpuLayers = []string{
	"sim", "netem", "codec", "cc", "media", "rtp", "vca", "cascade", "scenario",
	"tcp", "apps", "stats", "runner", "experiment", "obs", "go_gc", "go_other",
}

// allocLayers are the layers alloc_mb is reported for.
var allocLayers = []string{"codec", "vca", "netem", "sim", "rtp", "media", "cc", "stats"}

const internalPrefix = "vcalab/internal/"

// gcRoots matches the runtime entry points of memory management:
// allocation, write barriers, marking and sweeping. A sample whose stack
// passes through one is go_gc, whatever leaf it ended in; every other
// sample goes to the package of its leaf function.
const gcRoots = `runtime\.(mallocgc|gcBgMarkWorker|gcAssistAlloc|gcStart|gcMarkDone|bgsweep|bgscavenge|wbBufFlush|gcWriteBarrier|wbZero|wbMove|bulkBarrier)`

// layerOf maps a profiled function outside gcRoots to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
	}
	return "go_other"
}

// parseTop adds the flat column of `go tool pprof -top` text into out
// by layer. Values are in the column's base unit: seconds for a CPU
// profile, bytes for alloc_space.
func parseTop(text string, layer func(fn string) string, out map[string]float64) error {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := parseQuantity(f[0])
		if err != nil {
			return fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		out[layer(f[5])] += v
	}
	if !inTable {
		return fmt.Errorf("no flat/flat%% header in pprof output")
	}
	return sc.Err()
}

// units are pprof's display suffixes, longest first so "ms" wins over "s".
var units = []struct {
	suffix string
	scale  float64
}{
	{"hrs", 3600}, {"mins", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1},
	{"kB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1},
}

func parseQuantity(s string) (float64, error) {
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64) // a bare 0
}

// pprofTop shells out to `go tool pprof -top`; x/tools' profile reader
// is not importable here, and the prebuilt tool works offline.
func pprofTop(layer func(fn string) string, out map[string]float64, args ...string) error {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}, args...)...)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof %s: %w", strings.Join(args, " "), err)
	}
	return parseTop(string(text), layer, out)
}

// profiler captures a CPU profile and the alloc_space growth of the
// work between start and stop.
type profiler struct {
	dir, name string
	cpu       *os.File
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the heap profile is as of the last completed GC
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func startProfiler(dir, name string) (*profiler, error) {
	p := &profiler{dir: dir, name: name}
	if err := writeHeapProfile(p.path("heap-before")); err != nil {
		return nil, err
	}
	f, err := os.Create(p.path("cpu"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

func (p *profiler) path(kind string) string {
	return filepath.Join(p.dir, p.name+"-"+kind+".pb.gz")
}

// stop ends the capture and returns CPU seconds and allocated bytes by
// layer.
func (p *profiler) stop() (cpuS, allocB map[string]float64, err error) {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return nil, nil, err
	}
	if err := writeHeapProfile(p.path("heap-after")); err != nil {
		return nil, nil, err
	}
	cpuS, allocB = map[string]float64{}, map[string]float64{}
	if err := pprofTop(layerOf, cpuS, "-ignore="+gcRoots, p.path("cpu")); err != nil {
		return nil, nil, err
	}
	gc := func(string) string { return "go_gc" }
	if err := pprofTop(gc, cpuS, "-focus="+gcRoots, p.path("cpu")); err != nil {
		return nil, nil, err
	}
	err = pprofTop(layerOf, allocB, "-sample_index=alloc_space", "-base="+p.path("heap-before"), p.path("heap-after"))
	return cpuS, allocB, err
}
