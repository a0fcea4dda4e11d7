package syzlang_test

import (
	"reflect"
	"sort"
	"testing"

	"ozz/internal/modules"
	"ozz/internal/syzlang"
)

// TestModulesMemoized checks that the module list NewTarget computes once
// is the sorted, distinct module list of the target's templates, and that
// Modules returns it without rebuilding it.
func TestModulesMemoized(t *testing.T) {
	for _, names := range [][]string{nil, {"nbd", "bpf", "irdma"}, {"gsm"}} {
		tg := modules.Target(names...)
		seen := map[string]bool{}
		var want []string
		for _, d := range tg.Defs {
			if !seen[d.Module] {
				seen[d.Module] = true
				want = append(want, d.Module)
			}
		}
		sort.Strings(want)
		got := tg.Modules()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("modules %v: Modules() = %v, want %v", names, got, want)
		}
		if names != nil && len(got) != len(names) {
			t.Errorf("modules %v: Modules() lists %d modules", names, len(got))
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = tg.Modules() }); allocs != 0 {
			t.Errorf("modules %v: Modules() allocates %.1f times per call, want 0", names, allocs)
		}
	}
	if n := len(syzlang.NewTarget(nil).Modules()); n != 0 {
		t.Errorf("empty target lists %d modules", n)
	}
}
