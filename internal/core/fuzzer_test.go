package core

import (
	"reflect"
	"testing"

	"ozz/internal/modules"
)

// TestFuzzerFindsFig1Bug runs the full fuzzing loop (generation, profiling,
// hints, MTIs) against the buggy watchqueue module and expects the Fig. 1
// bug within a modest budget.
func TestFuzzerFindsFig1Bug(t *testing.T) {
	p := NewPool(Config{
		Modules:  []string{"watchqueue"},
		Bugs:     modules.Bugs("watchqueue:pipe_wmb"),
		Seed:     1,
		UseSeeds: true,
	}, 2)
	r := p.RunUntil("BUG: unable to handle kernel NULL pointer dereference in pipe_read", 50)
	if r == nil {
		t.Fatalf("fuzzer did not find the Fig. 1 bug in 50 steps (stats %+v)", p.Stats())
	}
	if !r.OOO {
		t.Errorf("bug not classified as OOO: %+v", r)
	}
	if r.Type != "S-S" {
		t.Errorf("expected S-S reordering, got %s", r.Type)
	}
	if r.HypBarrier == "" {
		t.Errorf("report lacks hypothetical barrier location")
	}
}

// TestFuzzerCleanKernelQuiet runs the fuzzer on the fixed module and expects
// zero OOO reports: the hypothetical barrier tests must not produce false
// positives when the real barriers are present.
func TestFuzzerCleanKernelQuiet(t *testing.T) {
	p := NewPool(Config{
		Modules:  []string{"watchqueue"},
		Bugs:     nil,
		Seed:     2,
		UseSeeds: true,
	}, 2)
	p.Run(40)
	for _, r := range p.Reports.All() {
		if r.OOO {
			t.Errorf("false positive on fixed kernel: %s", r.Title)
		}
	}
}

// TestFuzzerWithoutSeeds checks pure generation also reaches the bug (the
// templates alone must suffice, like syzlang descriptions do).
func TestFuzzerWithoutSeeds(t *testing.T) {
	p := NewPool(Config{
		Modules: []string{"watchqueue"},
		Bugs:    modules.Bugs("watchqueue:pipe_wmb"),
		Seed:    3,
	}, 2)
	r := p.RunUntil("BUG: unable to handle kernel NULL pointer dereference in pipe_read", 300)
	if r == nil {
		t.Fatalf("fuzzer did not find the bug from templates alone (stats %+v)", p.Stats())
	}
}

// TestCrossModelProbe pins the probe's per-model verdict on the Fig. 1
// bug: an S-S reordering reproduces under the weak models (lkmm, armv8)
// but never under tso, whose FIFO store buffer drains older pending
// stores before a later one commits. The verdict is the same whether the
// campaign stops at the finding (RunUntil) or runs its whole budget.
func TestCrossModelProbe(t *testing.T) {
	const title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
	want := []string{"armv8", "lkmm"}
	cfg := Config{
		Modules:  []string{"watchqueue"},
		Bugs:     modules.Bugs("watchqueue:pipe_wmb"),
		Seed:     1,
		UseSeeds: true,
	}

	r := NewPool(cfg, 1).RunUntil(title, 50)
	if r == nil {
		t.Fatal("RunUntil did not find the Fig. 1 bug in 50 steps")
	}
	if !reflect.DeepEqual(r.Models, want) {
		t.Errorf("RunUntil probe: Models = %v, want %v", r.Models, want)
	}

	p := NewPool(cfg, 2)
	p.Run(50)
	pr := p.Reports.Get(title)
	if pr == nil {
		t.Fatal("pool did not find the Fig. 1 bug in 50 steps")
	}
	if !reflect.DeepEqual(pr.Models, want) {
		t.Errorf("Run probe: Models = %v, want %v", pr.Models, want)
	}
}

// TestPoolRunUntilMatchesRun: RunUntil on a title that never appears runs
// exactly the campaign Run does with the same budget — budgets that end
// mid-batch included — at any worker count.
func TestPoolRunUntilMatchesRun(t *testing.T) {
	const steps = 70 // two whole batches and a partial one
	cfg := Config{Seed: 7, UseSeeds: true, Bugs: allBugSwitches()}
	for _, workers := range []int{1, 4} {
		p := NewPool(cfg, workers)
		want := poolFingerprint(p, p.Run(steps))
		q := NewPool(cfg, workers)
		if r := q.RunUntil("no such title", steps); r != nil {
			t.Fatalf("workers=%d: RunUntil found an impossible title: %+v", workers, r)
		}
		got := poolFingerprint(q, nil)
		if got.stats != want.stats {
			t.Errorf("workers=%d stats = %+v, want %+v", workers, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.cov, want.cov) {
			t.Errorf("workers=%d coverage diverged: %d edges vs %d", workers, len(got.cov), len(want.cov))
		}
		if !reflect.DeepEqual(got.corpus, want.corpus) {
			t.Errorf("workers=%d corpus diverged (%d vs %d programs)", workers, len(got.corpus), len(want.corpus))
		}
		if !reflect.DeepEqual(got.titles, want.titles) {
			t.Errorf("workers=%d titles = %v, want %v", workers, got.titles, want.titles)
		}
	}
}

// TestPoolRunUntilFound: a found title comes back as exactly the report
// Run publishes for it, RunUntil stops at the batch boundary where the
// title became known, and a title already known returns without running.
func TestPoolRunUntilFound(t *testing.T) {
	const title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
	cfg := Config{
		Modules:  []string{"watchqueue"},
		Bugs:     modules.Bugs("watchqueue:pipe_wmb"),
		Seed:     1,
		UseSeeds: true,
	}
	p := NewPool(cfg, 2)
	r := p.RunUntil(title, 200)
	if r == nil {
		t.Fatal("RunUntil did not find the Fig. 1 bug")
	}
	steps := p.Stats().Steps
	if steps != batchSize {
		t.Errorf("RunUntil ran %d steps, want one batch (%d): the seed corpus finds the bug in its first steps", steps, batchSize)
	}

	q := NewPool(cfg, 4)
	q.Run(200)
	if want := q.Reports.Get(title); !reflect.DeepEqual(r, want) {
		t.Errorf("RunUntil report = %+v, want Run's %+v", r, want)
	}

	if again := p.RunUntil(title, 200); again != r {
		t.Errorf("second RunUntil returned %p, want the known report %p", again, r)
	}
	if got := p.Stats().Steps; got != steps {
		t.Errorf("RunUntil on a known title ran %d more steps", got-steps)
	}
}
