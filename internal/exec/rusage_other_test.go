//go:build !unix

package exec_test

import "time"

// rusage reports no counters where getrusage does not exist.
func rusage() (cpu time.Duration, minorFaults int64, ok bool) { return 0, 0, false }
