//go:build unix

package exec_test

import (
	"syscall"
	"time"
)

// rusage returns the process's CPU time so far, user and system over
// every thread, and its minor page faults, from getrusage.
func rusage() (cpu time.Duration, minorFaults int64, ok bool) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), int64(ru.Minflt), true
}
