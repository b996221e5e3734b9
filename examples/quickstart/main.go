// Quickstart: run a two-party Zoom call over a 1 Mbps access link and
// print what it used — the minimal end-to-end use of the vcalab API.
package main

import (
	"fmt"
	"time"

	"vcalab"
)

func main() {
	eng := vcalab.NewEngine(42)

	// The paper's testbed: client C1 behind a 1 Mbps symmetric access
	// link, the far client and the VCA's relay server out on the Internet
	// (§2.2).
	_, call := vcalab.NewLabCall(eng, vcalab.Zoom(), 2, 1e6, 1e6, vcalab.CallOptions{Seed: 42})
	call.Start()
	eng.RunUntil(150 * time.Second) // the paper's 2.5-minute call
	call.Stop()

	up := call.C1().UpMeter.MeanRateMbps(30*time.Second, 150*time.Second)
	down := call.C1().DownMeter.MeanRateMbps(30*time.Second, 150*time.Second)
	fmt.Printf("zoom on a 1 Mbps symmetric link:\n")
	fmt.Printf("  upstream   %.2f Mbps\n", up)
	fmt.Printf("  downstream %.2f Mbps\n", down)
	fmt.Printf("  freezes    %.1f%% of call time\n",
		100*call.C1().Receiver("c2").FreezeRatio())
}
