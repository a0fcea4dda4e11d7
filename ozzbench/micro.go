package main

import (
	"flag"
	"testing"

	internalbench "ozz/internal/bench"
)

// microRows maps each bench.Micros driver to its per-layer row. The
// oemu, sched, kmem and memmodel layers are only reached from inside the
// engine, so these drivers — which call each layer's public functions
// directly — are how the benchmark sees them.
var microRows = map[string]struct{ layer, row string }{
	"oemu_step":           {"oemu", "oemu.step_ns"},
	"oemu_commit_tracked": {"oemu", "oemu.commit_tracked_ns"},
	"oemu_delay_flush":    {"oemu", "oemu.delay_flush_ns"},
	"model_dispatch":      {"memmodel", "memmodel.dispatch_ns"},
	"sched_yield":         {"sched", "sched.yield_ns"},
	"sched_switch":        {"sched", "sched.switch_ns"},
	"combinator_dispatch": {"sched", "sched.combinator_ns"},
	"kmem_check":          {"kmem", "kmem.check_ns"},
}

// microBenchTime is how long testing.Benchmark runs each driver.
const microBenchTime = "300ms"

// runMicros runs every micro driver and records its ns/op row plus the
// per-layer allocs/op sum. docs/PERFORMANCE.md pins every one of these
// paths at zero allocations, so each <layer>.allocs row must read 0.
func runMicros(b *bench) error {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchTime); err != nil {
		return err
	}
	allocs := map[string]float64{"oemu": 0, "sched": 0, "kmem": 0, "memmodel": 0}
	for _, m := range internalbench.Micros() {
		row, ok := microRows[m.Name]
		if !ok {
			b.fail("micro driver %q has no per-layer row", m.Name)
			continue
		}
		r := testing.Benchmark(m.Fn)
		if r.N == 0 {
			b.fail("micro driver %q did not run", m.Name)
			continue
		}
		b.set(row.row, float64(r.T.Nanoseconds())/float64(r.N))
		allocs[row.layer] += float64(r.AllocsPerOp())
	}
	for layer, a := range allocs {
		b.set(layer+".allocs", a)
		if a != 0 {
			b.fail("%s micro paths allocate %g allocs/op; docs/PERFORMANCE.md pins them at 0", layer, a)
		}
	}
	return nil
}
