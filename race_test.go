//go:build race

package tango

func init() { raceEnabled = true }
