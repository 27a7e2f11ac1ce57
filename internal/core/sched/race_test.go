//go:build race

package sched

func init() { raceEnabled = true }
