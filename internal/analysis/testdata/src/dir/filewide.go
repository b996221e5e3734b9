//vcalint:file-ignore determinism wall-clock harness file: elapsed time is the output

package dir

import "time"

// The file-ignore above silences the whole file.
func fileWideSuppressed() time.Time {
	return time.Now()
}
