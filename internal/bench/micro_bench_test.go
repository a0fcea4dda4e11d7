package bench

import "testing"

// The Micro* drivers live in micro.go so the campaign benchmark
// (ozzbench/micro.go) can run them through testing.Benchmark; these
// wrappers expose them to `go test -bench`.

func BenchmarkMicroOEMUStep(b *testing.B)           { MicroOEMUStep(b) }
func BenchmarkMicroOEMUCommitTracked(b *testing.B)  { MicroOEMUCommitTracked(b) }
func BenchmarkMicroOEMUDelayFlush(b *testing.B)     { MicroOEMUDelayFlush(b) }
func BenchmarkMicroModelDispatch(b *testing.B)      { MicroModelDispatch(b) }
func BenchmarkMicroSchedYield(b *testing.B)         { MicroSchedYield(b) }
func BenchmarkMicroSchedSwitch(b *testing.B)        { MicroSchedSwitch(b) }
func BenchmarkMicroKmemCheck(b *testing.B)          { MicroKmemCheck(b) }
func BenchmarkMicroCombinatorDispatch(b *testing.B) { MicroCombinatorDispatch(b) }
