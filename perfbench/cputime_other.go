//go:build !linux

package main

import "time"

// threadCPU is unavailable off Linux; callers fall back to wall time.
func threadCPU() (time.Duration, bool) { return 0, false }
