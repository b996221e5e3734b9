// Command vcacall runs a single emulated video-conference call on the
// paper's testbed (§2.2) and prints per-second measurements as CSV: C1's
// upstream and downstream bitrate and the WebRTC-stats encode parameters.
// -pcap and -trace also capture C1's traffic, as the paper's per-client
// tcpdump did: a libpcap file whose media packets carry real RTP headers
// and open in standard tools, and the matching JSONL event timeline on
// the same clock. Capture is read-only: stdout is the same with it on.
//
// Usage:
//
//	vcacall -vca zoom -up 0.5 -down 0 -dur 150s
//	vcacall -vca meet -n 5 -mode speaker
//	vcacall -vca meet -up 1 -dur 60s -pcap meet-1mbps.pcap -trace meet-1mbps.jsonl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"vcalab"
	"vcalab/internal/pcap"
)

// traceCap is the -trace ring: it holds every event of a 60 s two-party
// call. A longer or larger call keeps its last traceCap events (about
// 150 B each), and the summary counts the ones that fell off.
const traceCap = 1 << 18

func main() { os.Exit(run(os.Stdout, os.Stderr, os.Args[1:])) }

// run prints the CSV to w and the summary lines to errw; it returns the
// exit code: 2 for a bad invocation, 1 when a capture file could not be
// written whole (after the CSV, which is printed as usual).
func run(w, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("vcacall", flag.ExitOnError)
	var (
		vcaName   = fs.String("vca", "zoom", "VCA profile: meet|zoom|teams|teams-chrome|zoom-chrome")
		up        = fs.Float64("up", 0, "uplink shaping in Mbps (0 = unconstrained)")
		down      = fs.Float64("down", 0, "downlink shaping in Mbps (0 = unconstrained)")
		dur       = fs.Duration("dur", 150*time.Second, "call duration")
		n         = fs.Int("n", 2, "number of participants")
		mode      = fs.String("mode", "gallery", "viewing mode: gallery|speaker")
		seed      = fs.Int64("seed", 42, "simulation seed")
		pcapPath  = fs.String("pcap", "", "also write C1's traffic to `FILE` as libpcap: all it receives and all it offers its uplink")
		tracePath = fs.String("trace", "", fmt.Sprintf("also write C1's JSONL event timeline to `FILE`, on the pcap's clock: every decision plus C1's two bottleneck links. "+
			"The ring keeps the call's last %d events (a 60 s two-party call fits whole); the summary says how many fell off", traceCap))
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	// The negated comparisons reject NaN too.
	var bad string
	switch {
	case *n < 2:
		bad = fmt.Sprintf("-n must be >= 2 (C1 and one peer); got %d", *n)
	case *mode != "gallery" && *mode != "speaker":
		bad = fmt.Sprintf("-mode must be gallery or speaker; got %q", *mode)
	case *dur <= 0:
		bad = fmt.Sprintf("-dur must be > 0; got %v", *dur)
	case !(*up >= 0 && *up*1e6 <= math.MaxFloat64):
		bad = fmt.Sprintf("-up must be finite and >= 0 Mbps (0 = unconstrained); got %v", *up)
	case !(*down >= 0 && *down*1e6 <= math.MaxFloat64):
		bad = fmt.Sprintf("-down must be finite and >= 0 Mbps (0 = unconstrained); got %v", *down)
	}
	if bad != "" {
		fmt.Fprintln(errw, bad)
		return 2
	}
	prof, ok := vcalab.Profiles()[*vcaName]
	if !ok {
		fmt.Fprintf(errw, "unknown VCA %q; choose from meet, zoom, teams, teams-chrome, zoom-chrome\n", *vcaName)
		return 2
	}
	vm := vcalab.Gallery
	if *mode == "speaker" {
		vm = vcalab.Speaker
	}

	eng := vcalab.NewEngine(*seed)
	lab, call := vcalab.NewLabCall(eng, prof, *n, *up*1e6, *down*1e6, vcalab.CallOptions{Mode: vm, Seed: *seed})
	c1 := call.C1()
	rec := c1.RecordStats()

	// Capture at C1 like the paper: everything it receives, plus
	// everything it offers to its uplink. The engine traces every link and
	// decision; the file keeps the decisions plus C1's two bottleneck
	// links, so it aligns packet-for-packet with the pcap.
	var pf, tf *os.File
	var pbuf *bufio.Writer
	var pw *pcap.Writer
	var tracer *vcalab.Tracer
	if *pcapPath != "" {
		var err error
		if pf, err = os.Create(*pcapPath); err != nil {
			fmt.Fprintln(errw, err)
			return 1
		}
		pbuf = bufio.NewWriter(pf)
		if pw, err = pcap.NewWriter(pbuf); err != nil {
			fmt.Fprintln(errw, err)
			return 1
		}
		pcap.TapHost(pw, c1.Host(), eng.Now)
		pcap.TapLink(pw, c1.Host().Uplink(), eng.Now)
	}
	if *tracePath != "" {
		var err error
		if tf, err = os.Create(*tracePath); err != nil {
			pf.Close() // nil-safe
			fmt.Fprintln(errw, err)
			return 1
		}
		tracer = vcalab.NewTracer(traceCap)
		eng.SetTracer(tracer)
	}

	call.Start()
	eng.RunUntil(*dur)
	call.Stop()

	upS, downS := c1.UpMeter.RateMbps(), c1.DownMeter.RateMbps()
	fmt.Fprintln(w, "t_s,up_mbps,down_mbps,out_fps,out_qp,out_width,fir_total")
	for i := range upS.Times {
		var fps, qp float64
		var width, fir int
		if i < len(rec.Samples) {
			s := rec.Samples[i]
			fps, qp, width, fir = s.Out.FPS, s.Out.QP, s.Out.Width, s.FIRCount
		}
		d := 0.0
		if i < downS.Len() {
			d = downS.Values[i]
		}
		fmt.Fprintf(w, "%.0f,%.3f,%.3f,%.1f,%.1f,%d,%d\n",
			upS.Times[i].Seconds(), upS.Values[i], d, fps, qp, width, fir)
	}
	fmt.Fprintf(errw, "%s: mean up %.2f Mbps, down %.2f Mbps over final 2/3 of call\n",
		prof.Name,
		c1.UpMeter.MeanRateMbps(*dur/3, *dur),
		c1.DownMeter.MeanRateMbps(*dur/3, *dur))

	code := 0
	// closed closes a capture file and reports whether it was written
	// whole; if not, the first of err and the close error fails the run,
	// naming the file.
	closed := func(f *os.File, err error) bool {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(errw, "vcacall: %s is incomplete: %v\n", f.Name(), err)
			code = 1
		}
		return err == nil
	}
	if pw != nil {
		err := pw.Err()
		if ferr := pbuf.Flush(); err == nil {
			err = ferr
		}
		if closed(pf, err) {
			fmt.Fprintf(errw, "wrote %d packets to %s\n", pw.Packets, pf.Name())
		}
	}
	if tracer != nil {
		lines, err := tracer.WriteLinksJSONL(tf, lab.Uplink().Name(), lab.Downlink().Name())
		if closed(tf, err) {
			fmt.Fprintf(errw, "wrote %d trace lines to %s (%d events fell off the ring)\n", lines, tf.Name(), tracer.Dropped())
		}
	}
	return code
}
