//go:build race

package infer_test

func init() { raceEnabled = true }
