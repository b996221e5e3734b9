// Command vcapcap runs an emulated call and writes C1's traffic to a
// libpcap capture file, reproducing the paper's per-client tcpdump traces.
// Media packets carry real RTP headers and open in standard tools.
//
// Usage:
//
//	vcapcap -vca meet -up 1 -o meet-1mbps.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vcalab"
	"vcalab/internal/pcap"
)

func main() { os.Exit(run(os.Stderr, os.Args[1:])) }

// run writes the capture files and its summary lines to errw; it returns
// the exit code. vcapcap prints nothing on stdout.
func run(errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("vcapcap", flag.ExitOnError)
	var (
		vcaName   = fs.String("vca", "zoom", "VCA profile")
		up        = fs.Float64("up", 0, "uplink shaping in Mbps (0 = unconstrained)")
		down      = fs.Float64("down", 0, "downlink shaping in Mbps (0 = unconstrained)")
		dur       = fs.Duration("dur", 60*time.Second, "call duration")
		out       = fs.String("o", "call.pcap", "output pcap path")
		seed      = fs.Int64("seed", 42, "simulation seed")
		traceFile = fs.String("trace", "", "also write C1's structured JSONL event timeline to `FILE`, time-aligned with the pcap (same t=0)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	// The negated comparisons reject NaN too.
	var bad string
	switch {
	case *dur <= 0:
		bad = fmt.Sprintf("-dur must be > 0; got %v", *dur)
	case !(*up >= 0):
		bad = fmt.Sprintf("-up must be >= 0 Mbps (0 = unconstrained); got %v", *up)
	case !(*down >= 0):
		bad = fmt.Sprintf("-down must be >= 0 Mbps (0 = unconstrained); got %v", *down)
	}
	if bad != "" {
		fmt.Fprintln(errw, bad)
		return 2
	}
	prof, ok := vcalab.Profiles()[*vcaName]
	if !ok {
		fmt.Fprintf(errw, "unknown VCA %q\n", *vcaName)
		return 2
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	defer f.Close()
	w, err := pcap.NewWriter(f)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}

	eng := vcalab.NewEngine(*seed)
	lab := vcalab.NewLab(eng, *up*1e6, *down*1e6)
	c1 := lab.ClientHost("c1")
	c2 := lab.RemoteHost("c2", vcalab.RemoteDelay)
	sfu := lab.RemoteHost("sfu", vcalab.SFUDelay)

	// Capture at C1 like the paper: everything it receives, plus
	// everything it offers to its uplink.
	pcap.TapHost(w, c1, eng.Now)
	pcap.TapLink(w, c1.Uplink(), eng.Now)

	call := vcalab.NewCall(eng, prof, sfu, []*vcalab.Host{c1, c2}, vcalab.CallOptions{Seed: *seed})

	// -trace mirrors the pcap vantage point in structured form: the engine
	// traces every link and decision, and the file keeps the decisions
	// plus C1's two shaped bottleneck links, so every line shares the
	// capture's clock and aligns packet-for-packet with the pcap. The ring
	// holds a default 60 s call without wrapping.
	var tracer *vcalab.Tracer
	if *traceFile != "" {
		tracer = vcalab.NewTracer(1 << 18)
		eng.SetTracer(tracer)
	}

	call.Start()
	eng.RunUntil(*dur)
	call.Stop()

	if tracer != nil {
		tf, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(errw, err)
			return 1
		}
		n, err := tracer.WriteLinksJSONL(tf, lab.Uplink().Name(), lab.Downlink().Name())
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(errw, err)
			return 1
		}
		fmt.Fprintf(errw, "wrote %d trace lines to %s (%d events dropped by the ring)\n",
			n, *traceFile, tracer.Dropped())
	}
	fmt.Fprintf(errw, "wrote %d packets to %s (%s call, %v)\n",
		w.Packets, *out, prof.Name, *dur)
	return 0
}
