// Command vcacall runs a single emulated video-conference call and prints
// per-second measurements as CSV: C1's upstream and downstream bitrate and
// the WebRTC-stats encode parameters.
//
// Usage:
//
//	vcacall -vca zoom -up 0.5 -down 0 -dur 150s
//	vcacall -vca meet -n 5 -mode speaker
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vcalab"
)

func main() { os.Exit(run(os.Stdout, os.Stderr, os.Args[1:])) }

// run prints the CSV to w and the summary line to errw; it returns the exit code.
func run(w, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("vcacall", flag.ExitOnError)
	var (
		vcaName = fs.String("vca", "zoom", "VCA profile: meet|zoom|teams|teams-chrome|zoom-chrome")
		up      = fs.Float64("up", 0, "uplink shaping in Mbps (0 = unconstrained)")
		down    = fs.Float64("down", 0, "downlink shaping in Mbps (0 = unconstrained)")
		dur     = fs.Duration("dur", 150*time.Second, "call duration")
		n       = fs.Int("n", 2, "number of participants")
		mode    = fs.String("mode", "gallery", "viewing mode: gallery|speaker")
		seed    = fs.Int64("seed", 42, "simulation seed")
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
		fmt.Fprintf(errw, "unknown VCA %q; choose from meet, zoom, teams, teams-chrome, zoom-chrome\n", *vcaName)
		return 2
	}
	vm := vcalab.Gallery
	if *mode == "speaker" {
		vm = vcalab.Speaker
	}

	eng := vcalab.NewEngine(*seed)
	lab := vcalab.NewLab(eng, *up*1e6, *down*1e6)
	hosts := []*vcalab.Host{lab.ClientHost("c1")}
	for i := 2; i <= *n; i++ {
		hosts = append(hosts, lab.RemoteHost(fmt.Sprintf("c%d", i), vcalab.RemoteDelay))
	}
	sfu := lab.RemoteHost("sfu", vcalab.SFUDelay)
	call := vcalab.NewCall(eng, prof, sfu, hosts, vcalab.CallOptions{Mode: vm, Seed: *seed})
	c1 := call.C1()
	rec := c1.RecordStats()
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
	return 0
}
