package oemu

import (
	"testing"

	"ozz/internal/kmem"
	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// runWorkload drives one representative no-directive execution over a
// recycled emulator: two threads storing, loading (plain and annotated),
// hitting barriers, and draining at the syscall boundary.
func runWorkload(em *OEMU) {
	a := em.NewThread(0)
	b := em.NewThread(1)
	for i := 0; i < 8; i++ {
		site := trace.InstrID(i + 1)
		a.Store(site, addrX+trace.Addr(i%4*8), uint64(i), trace.Plain)
		_ = b.Load(site, addrX+trace.Addr(i%4*8), trace.Once)
		a.Barrier(trace.BarrierStore)
		_ = a.Load(site, addrY, trace.Plain)
		b.Store(site, addrZ, uint64(i), trace.AtomicRelease)
	}
	a.FlushAtSyscallExit()
	b.FlushAtSyscallExit()
}

// recycledRunAllocs warms em over mem with three runs under model mm,
// store-history tracking on or off, and returns the allocations of one
// more recycled run.
func recycledRunAllocs(em *OEMU, mem *kmem.Memory, mm *memmodel.Table, tracked bool) float64 {
	run := func() {
		em.SetModel(mm)
		em.SetHistoryTracking(tracked)
		runWorkload(em)
		mem.Reset()
		em.Reset()
	}
	// Warm-up: populate intern table, rings, thread freelist.
	for i := 0; i < 3; i++ {
		run()
	}
	return testing.AllocsPerRun(50, run)
}

// TestRecycledRunAllocationFree is the steady-state allocation regression
// gate: once an emulator has been through one run (intern table populated,
// rings and thread structs built), a recycled no-directive run must not
// allocate at all — Reset recycles the arenas instead of reallocating. The
// run keeps store-history tracking off, as every engine run without
// versioned loads does. It runs under every registered memory model, so
// each model's dispatch through the compiled table (TSO's FIFO store
// buffer included) is pinned too.
func TestRecycledRunAllocationFree(t *testing.T) {
	for _, mm := range memmodel.All() {
		mem := kmem.New()
		mem.Sanitize = false
		if allocs := recycledRunAllocs(New(mem), mem, mm, false); allocs != 0 {
			t.Errorf("%s: recycled no-directive run allocates %.1f times, want 0", mm.Name(), allocs)
		}
	}
}

// TestRecycledRunAllocationFreeTracked repeats the gate with store-history
// tracking on (the default after Reset): ring recycling and in-place stamp
// writes must keep the tracked path allocation-free too, under every
// model.
func TestRecycledRunAllocationFreeTracked(t *testing.T) {
	for _, mm := range memmodel.All() {
		mem := kmem.New()
		mem.Sanitize = false
		if allocs := recycledRunAllocs(New(mem), mem, mm, true); allocs != 0 {
			t.Errorf("%s: tracked recycled run allocates %.1f times, want 0", mm.Name(), allocs)
		}
	}
}

// TestHistoryTrackingGate pins the tracking switch semantics: with tracking
// off nothing is recorded, re-arming mid-run floors versioned loads at the
// re-arm point, and Reset restores the default.
func TestHistoryTrackingGate(t *testing.T) {
	em, ths, mem := env(2)
	a, b := ths[0], ths[1]
	em.SetHistoryTracking(false)
	a.Store(1, addrX, 1, trace.Plain)
	a.Store(1, addrX, 2, trace.Plain)
	if got := mem.Read(addrX); got != 2 {
		t.Fatalf("stores must still commit with tracking off: X=%d", got)
	}
	// Re-arm mid-run: the directive path comes back, but the pre-arm
	// history was never recorded, so the load cannot observe X=1 or X=0.
	a.Dir.ReadOldValueAt(2)
	if !em.HistoryTracking() {
		t.Fatal("ReadOldValueAt must re-arm history tracking")
	}
	if got := a.Load(2, addrX, trace.Plain); got != 2 {
		t.Fatalf("versioned load reached past the re-arm point: got %d, want 2", got)
	}
	b.Store(3, addrX, 3, trace.Plain)
	// Now a post-arm old value exists from another thread: the window
	// floor is the arm point, and CoRR pins the already-seen version 2.
	if got := a.Load(2, addrX, trace.Plain); got != 2 {
		t.Fatalf("versioned load after re-arm: got %d, want old value 2", got)
	}
	em.Reset()
	if !em.HistoryTracking() {
		t.Fatal("Reset must restore tracking to the default (on)")
	}
}

// TestInstallPlanEquivalence: a precompiled plan behaves exactly like the
// same directives installed incrementally.
func TestInstallPlanEquivalence(t *testing.T) {
	run := func(install func(a *Thread)) (uint64, int) {
		_, ths, _ := env(2)
		a, b := ths[0], ths[1]
		install(a)
		a.Store(1, addrX, 1, trace.Plain) // delayed
		a.Store(2, addrY, 2, trace.Plain) // committed
		got := b.Load(3, addrX, trace.Plain)
		a.Flush()
		return got, a.ReorderedCount()
	}
	incVal, incN := run(func(a *Thread) { a.Dir.DelayStoreAt(1) })
	p := CompilePlan([]trace.InstrID{1}, nil)
	planVal, planN := run(func(a *Thread) { a.InstallPlan(p) })
	if incVal != planVal || incN != planN {
		t.Fatalf("plan path diverges: incremental (%d, %d) vs plan (%d, %d)",
			incVal, incN, planVal, planN)
	}
	if p.Empty() || p.HasReads() {
		t.Fatalf("plan shape wrong: empty=%v hasReads=%v", p.Empty(), p.HasReads())
	}
}

// TestPlanImmutableUnderThreadMutation: adding incremental directives after
// InstallPlan must not write into the shared plan.
func TestPlanImmutableUnderThreadMutation(t *testing.T) {
	p := CompilePlan([]trace.InstrID{5}, []trace.InstrID{7})
	_, ths, _ := env(1)
	a := ths[0]
	a.InstallPlan(p)
	a.Dir.DelayStoreAt(1)
	a.Dir.ReadOldValueAt(2)
	a.ResetDirectives()
	a.Dir.DelayStoreAt(9)
	if got := p.DelaySites(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("plan delay sites mutated: %v", got)
	}
	if got := p.ReadSites(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("plan read sites mutated: %v", got)
	}
	if a.Dir.hasDelay(5) {
		t.Fatal("ResetDirectives must detach the installed plan")
	}
}

// TestDirectiveSetSemantics pins the sorted-set behavior of the directive
// slices: duplicates collapse, membership is exact.
func TestDirectiveSetSemantics(t *testing.T) {
	var d Directives
	for _, i := range []trace.InstrID{9, 3, 9, 1, 3, 200} {
		d.DelayStoreAt(i)
	}
	for _, i := range []trace.InstrID{1, 3, 9, 200} {
		if !d.hasDelay(i) {
			t.Fatalf("site %d missing from delay set", i)
		}
	}
	for _, i := range []trace.InstrID{0, 2, 4, 199, 201} {
		if d.hasDelay(i) {
			t.Fatalf("site %d unexpectedly in delay set", i)
		}
	}
	if len(d.delayStore) != 4 {
		t.Fatalf("duplicates not collapsed: %v", d.delayStore)
	}
	if d.Empty() {
		t.Fatal("non-empty set reported Empty")
	}
}
