package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ozz/internal/syzlang"
)

// TestStepRandMatchesFreshSource pins the equivalence worker-side planning
// relies on: one reused stream, reseeded per step, draws exactly what a
// fresh rand.New(rand.NewSource(jobSeed(seed, idx))) draws — whatever the
// previous step left behind in it.
func TestStepRandMatchesFreshSource(t *testing.T) {
	draws := func(r *rand.Rand) []int64 {
		var out []int64
		for n := 1; n <= 40; n++ {
			out = append(out, int64(r.Intn(n)), r.Int63())
		}
		perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for _, v := range perm {
			out = append(out, int64(v))
		}
		buf := make([]byte, 5) // leaves Read's partial-word position dirty
		_, _ = r.Read(buf)
		for _, b := range buf {
			out = append(out, int64(b))
		}
		return out
	}
	var sr stepRand
	for _, seed := range []int64{0, 7, -3, 1 << 40} {
		for idx := uint64(0); idx < 1500; idx++ {
			want := draws(rand.New(rand.NewSource(jobSeed(seed, idx))))
			got := draws(sr.reseed(seed, idx))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: reseeded stream diverges from a fresh source", seed, idx)
			}
		}
	}
}

// TestPlanJobSeedStepAllocs pins the per-step saving: once a worker owns
// its stream, planning a seed-program step allocates nothing, so a
// per-step random source cannot come back.
func TestPlanJobSeedStepAllocs(t *testing.T) {
	p := NewPool(Config{Seed: 3, UseSeeds: true}, 1)
	if len(p.seeds) == 0 {
		t.Fatal("no seed programs to plan")
	}
	jb := job{idx: 5, seed: p.seeds[0]}
	var sr stepRand
	var got *syzlang.Program
	allocs := testing.AllocsPerRun(200, func() {
		got = p.planJob(jb, sr.reseed(p.cfg.Seed, jb.idx))
	})
	if allocs != 0 {
		t.Errorf("planning a seed step allocates %.1f times, want 0", allocs)
	}
	if got != jb.seed {
		t.Error("a seed step did not replay its seed program")
	}
}
