package kmem

import (
	"testing"
	"testing/quick"

	"ozz/internal/trace"
)

func TestAllocValidAccess(t *testing.T) {
	m := New()
	a := m.Alloc(3)
	for i := 0; i < 3; i++ {
		if f := m.Check(1, a+trace.Addr(i*WordSize), trace.Load); f != nil {
			t.Fatalf("valid slot %d faulted: %v", i, f)
		}
	}
}

func TestAllocPoisonPattern(t *testing.T) {
	m := New()
	a := m.Alloc(1)
	if m.Read(a) != 0xdead4ead_deadbeef {
		t.Fatalf("kmalloc memory not poisoned: %#x", m.Read(a))
	}
	z := m.AllocZeroed(1)
	if m.Read(z) != 0 {
		t.Fatalf("kzalloc memory not zeroed: %#x", m.Read(z))
	}
}

func TestRedzoneOOB(t *testing.T) {
	m := New()
	a := m.Alloc(2)
	f := m.Check(1, a+2*WordSize, trace.Load) // one past the end
	if f == nil || f.Kind != FaultOOB {
		t.Fatalf("expected OOB at trailing redzone, got %v", f)
	}
	f = m.Check(1, a-WordSize, trace.Store) // one before the start
	if f == nil || f.Kind != FaultOOB {
		t.Fatalf("expected OOB at leading redzone, got %v", f)
	}
}

func TestUseAfterFree(t *testing.T) {
	m := New()
	a := m.Alloc(2)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	f := m.Check(1, a, trace.Load)
	if f == nil || f.Kind != FaultUAF {
		t.Fatalf("expected UAF, got %v", f)
	}
	// Freed memory is poisoned.
	if m.Read(a) != 0xdeadbeef_deadbeef {
		t.Fatalf("freed memory not poisoned: %#x", m.Read(a))
	}
}

func TestInvalidFree(t *testing.T) {
	m := New()
	a := m.Alloc(2)
	if err := m.Free(a + WordSize); err == nil {
		t.Fatal("freeing interior pointer must fail")
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err == nil {
		t.Fatal("double free must fail")
	}
}

func TestNullAndWild(t *testing.T) {
	m := New()
	if f := m.Check(1, 0x10, trace.Load); f == nil || f.Kind != FaultNull {
		t.Fatalf("expected NULL fault, got %v", f)
	}
	if f := m.Check(1, NullPage+8, trace.Store); f == nil || f.Kind != FaultWild {
		t.Fatalf("expected wild fault, got %v", f)
	}
}

func TestSanitizeOff(t *testing.T) {
	m := New()
	m.Sanitize = false
	if f := m.Check(1, 0, trace.Load); f != nil {
		t.Fatalf("sanitize off must not fault: %v", f)
	}
}

func TestQuarantineEviction(t *testing.T) {
	m := New()
	first := m.Alloc(1)
	if err := m.Free(first); err != nil {
		t.Fatal(err)
	}
	// Overflow the quarantine.
	for i := 0; i < 100; i++ {
		a := m.Alloc(1)
		if err := m.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	// The first object left quarantine: its slots are unmapped now (a
	// wild fault, no longer a precise UAF).
	f := m.Check(1, first, trace.Load)
	if f == nil || f.Kind != FaultUAF {
		if f == nil || f.Kind != FaultWild {
			t.Fatalf("expected wild/unmapped after eviction, got %v", f)
		}
	}
}

func TestStats(t *testing.T) {
	m := New()
	a := m.Alloc(1)
	m.AllocZeroed(2)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	allocs, frees := m.Stats()
	if allocs != 2 || frees != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", allocs, frees)
	}
}

// TestPropertyAllocationsDisjoint: any sequence of allocations yields
// non-overlapping objects, all valid, each bounded by redzones.
func TestPropertyAllocationsDisjoint(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New()
		type obj struct {
			base trace.Addr
			n    int
		}
		var objs []obj
		for _, s := range sizes {
			n := int(s%8) + 1
			objs = append(objs, obj{m.Alloc(n), n})
		}
		seen := map[trace.Addr]bool{}
		for _, o := range objs {
			for i := 0; i < o.n; i++ {
				a := o.base + trace.Addr(i*WordSize)
				if seen[a] || m.Check(1, a, trace.Load) != nil {
					return false
				}
				seen[a] = true
			}
			if m.Check(1, o.base+trace.Addr(o.n*WordSize), trace.Load) == nil {
				return false // trailing redzone must fault
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReadAfterWrite: the memory is a map — writes are always
// visible to subsequent reads at the same address.
func TestPropertyReadAfterWrite(t *testing.T) {
	f := func(addr uint32, v uint64) bool {
		m := New()
		a := trace.Addr(addr)
		m.Write(a, v)
		return m.Read(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultStrings(t *testing.T) {
	f := &Fault{Kind: FaultOOB, Addr: 0x100, Acc: trace.Store, Instr: 7}
	if got := f.Error(); got == "" || got[:len("slab-out-of-bounds")] != "slab-out-of-bounds" {
		t.Fatalf("Error() = %q", got)
	}
	for k, want := range map[FaultKind]string{
		FaultNone: "none", FaultNull: "null-ptr-deref",
		FaultWild: "general-protection-fault", FaultUAF: "use-after-free",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	for s, want := range map[SlotState]string{
		Unmapped: "unmapped", Valid: "valid", Redzone: "redzone", Freed: "freed",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
}

func TestObjectWords(t *testing.T) {
	m := New()
	a := m.Alloc(3)
	if m.ObjectWords(a) != 3 || m.ObjectWords(a+8) != 0 {
		t.Fatal("ObjectWords broken")
	}
	m.Free(a)
	if m.ObjectWords(a) != 0 {
		t.Fatal("freed object still reported live")
	}
}

func TestZeroSizeAllocRoundsUp(t *testing.T) {
	m := New()
	a := m.Alloc(0)
	if m.Check(1, a, trace.Load) != nil {
		t.Fatal("zero-size alloc unusable")
	}
	if m.Check(1, a+WordSize, trace.Load) == nil {
		t.Fatal("zero-size alloc larger than one word")
	}
}

// TestCheckReadZeroAlloc pins the sanitized access every instrumented load
// and store pays — the Check of a valid slot plus the Read — as
// allocation-free once the page exists.
func TestCheckReadZeroAlloc(t *testing.T) {
	m := New()
	base := m.AllocZeroed(4)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		a := base + trace.Addr(i%4*WordSize)
		i++
		if f := m.Check(1, a, trace.Load); f != nil {
			t.Fatal(f)
		}
		_ = m.Read(a)
	})
	if allocs != 0 {
		t.Fatalf("sanitized Check+Read allocates %.1f times per access, want 0", allocs)
	}
}
