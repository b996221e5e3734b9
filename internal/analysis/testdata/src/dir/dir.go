// Package dir exercises the //vcalint:ignore directive machinery,
// using the determinism analyzer as the finding source (the test
// registers "dir" as a deterministic package): same-line and
// line-above suppression, the mandatory reason, and the unknown-name
// check.
package dir

import "time"

func suppressedSameLine() time.Time {
	return time.Now() //vcalint:ignore determinism busy-time meter, never reaches output
}

func suppressedLineAbove() time.Time {
	//vcalint:ignore determinism busy-time meter, never reaches output
	return time.Now()
}

// A directive two lines away does not reach.
func notSuppressed() time.Time {
	//vcalint:ignore determinism too far away to bind to the finding

	return time.Now() // want `time.Now in deterministic package`
}

// A typo'd analyzer name would silently suppress nothing forever, so
// it is itself a finding.
//
//vcalint:ignore bogus latency experiment // want `directive names unknown analyzer "bogus"`
var a = 1

// So is a suppression without a recorded justification.
//
//vcalint:ignore determinism // want `malformed directive: missing reason`
var b = 2
