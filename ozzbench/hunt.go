package main

import (
	"fmt"
	"runtime"
	"time"

	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/repair"
)

// hunt: each Table 3/4 bug in its own single-module campaign with only
// its switch on, under its declared strategy, seed corpus off (with it
// every bug falls in the first batch and nothing about search is
// measured). Each (bug, seed) runs a find pass with repair off, then a
// fix pass with repair on. This is the new-finding path steady never
// takes: triage re-run, cross-model probe, report construction, repair.
const (
	huntSeeds  = 6    // 20 targets x 6 seeds gives the p90 rows over 100 samples
	huntBudget = 4096 // steps per pass, the same for every bug; a miss is a failure
	findSteps  = 1024 // least steps of a find pass
)

// huntTarget is one Table 3/4 bug and the title that proves it found.
type huntTarget struct {
	bug   modules.BugInfo
	title string
}

func huntTargets() []huntTarget {
	var out []huntTarget
	for _, b := range modules.AllBugs() {
		if b.Table != 3 && b.Table != 4 {
			continue
		}
		t := huntTarget{bug: b, title: b.Title}
		if t.title == "" {
			t.title = b.SoftTitle
		}
		out = append(out, t)
	}
	return out
}

func (t huntTarget) config(seed int64, repairOn bool) core.Config {
	return core.Config{
		Modules:  []string{t.bug.Module},
		Bugs:     modules.Bugs(t.bug.Switch),
		Seed:     seed,
		Strategy: t.bug.Strategy,
		Repair:   repairOn,
	}
}

// passResult is one find or fix pass.
type passResult struct {
	found   bool          // the target was reported as an OOO bug (and, fixing, its search concluded)
	decided time.Duration // NewPool to the end of the batch that decided the pass
	wall    time.Duration // the whole pass
	setup   time.Duration // NewPool alone
	pool    *core.Pool
	tests   int            // the target report's Tests
	repair  *repair.Result // fix pass only
}

// huntPass runs a pool campaign batch by batch until the target is found
// (and, fixing, its repair search has concluded), the target's title is
// reported as something other than an OOO bug, or the budget is spent.
// A find pass always runs at least findSteps steps, so the find passes
// of a seed do a fixed amount of work across all 20 modules whatever
// the search luck, and their throughput is comparable between seeds.
func huntPass(t huntTarget, seed int64, fixing bool) passResult {
	minSteps := findSteps
	if fixing {
		minSteps = 0
	}
	t0 := time.Now()
	p := core.NewPool(t.config(seed, fixing), poolWorkers)
	res := passResult{setup: time.Since(t0), pool: p}
	decided := false
	for steps := 0; steps < huntBudget && !(decided && steps >= minSteps); steps += batchSteps {
		p.Run(batchSteps)
		if decided {
			continue
		}
		r := p.Reports.Get(t.title)
		if r == nil {
			continue
		}
		if r.OOO {
			res.repair = p.RepairResult(t.title)
			res.found = !fixing || res.repair != nil
			res.tests = r.Tests
		}
		// A non-OOO report of the title is final too: reports are
		// deduplicated by title, so no later batch can reclassify it.
		if res.found || !r.OOO {
			decided = true
			res.decided = time.Since(t0)
		}
	}
	res.wall = time.Since(t0)
	if !decided {
		res.decided = res.wall
	}
	return res
}

func runHunt(b *bench) error {
	seeds := seedSet(b.seed, huntSeeds)
	targets := huntTargets()
	var (
		setups, tests, mtis []float64
		rss                 []float64
		ttf, ttfix          []time.Duration
		found, fixed        int
		toFind              uint64
		regs                = make(scrape)
	)
	start := time.Now()
	for si := 0; si < len(seeds) || (!b.traced && time.Since(start) < b.window); si++ {
		s := seeds[si%len(seeds)]
		firstPass := si < len(seeds)
		// tests_per_s and mtis_per_s take one sample per seed: the find
		// passes over all 20 targets, whose work is fixed. The fix
		// passes' time is mostly repair searches whose cost depends on
		// which reproducer the search happened to find first.
		var wall time.Duration
		var steps, mti uint64
		runtime.GC()
		resetPeakRSS()
		for _, t := range targets {
			// Start every target on a collected heap, so no pass pays for
			// the garbage of the one before.
			runtime.GC()
			find := huntPass(t, s, false)
			fix := huntPass(t, s, true)
			setups = append(setups, find.setup.Seconds(), fix.setup.Seconds())
			fs := find.pool.Stats()
			wall += find.wall
			steps += fs.Steps
			mti += fs.MTIs
			b.checkHunt(t, s, find, fix)
			// Only the first pass over the seed set counts toward
			// attempted and failed: a later pass repeats the same
			// (bug, seed) pairs, and the determinism guard holds it to
			// the first.
			if firstPass {
				b.res.Attempted++
				if !find.found {
					b.res.Failed++
				}
			}
			if find.found {
				ttf = append(ttf, find.decided)
				if fix.found {
					ttfix = append(ttfix, fix.decided)
				}
			}
			if firstPass {
				if find.found {
					found++
					toFind += uint64(find.tests)
					if fix.found && len(fix.repair.Suggestions) > 0 {
						fixed++
					}
				}
				if b.traced {
					if err := regs.add(find.pool.Obs()); err != nil {
						return err
					}
					if err := regs.add(fix.pool.Obs()); err != nil {
						return err
					}
				}
			}
		}
		rss = append(rss, peakRSSMB())
		tests = append(tests, float64(steps)/wall.Seconds())
		mtis = append(mtis, float64(mti)/wall.Seconds())
		logf("hunt seed=%d: find passes %d steps, %d MTIs in %.2fs", s, steps, mti, wall.Seconds())
	}
	b.set("setup_s", median(setups))
	b.set("tests_per_s", median(tests))
	b.set("mtis_per_s", median(mtis))
	b.set("peak_rss_mb", median(rss))

	attempted := len(targets) * len(seeds)
	ttfMS, ttfixMS := durationsMS(ttf), durationsMS(ttfix)
	b.set("ttf_p50_ms", median(ttfMS))
	b.set("ttf_p90_ms", quantile(ttfMS, 0.9))
	b.set("ttfix_p50_ms", median(ttfixMS))
	b.set("ttfix_p90_ms", quantile(ttfixMS, 0.9))
	b.set("found_ratio", ratio(float64(found), float64(attempted)))
	b.set("fixed_ratio", ratio(float64(fixed), float64(found)))
	b.set("mtis_to_find", float64(toFind))
	logf("hunt: found %d/%d, fixed %d/%d, %d MTIs to find; %d ttf and %d ttfix samples",
		found, attempted, fixed, found, toFind, len(ttf), len(ttfix))
	if !b.traced {
		return nil
	}
	b.setEngineRatios(regs)
	b.set("repair.candidates_per_search", ratio(regs["ozz_repair_candidates_enumerated_total"], regs["ozz_repair_searches_total"]))
	b.set("repair.validated_ratio", ratio(regs["ozz_repair_candidates_validated_total"], regs["ozz_repair_candidates_enumerated_total"]))
	var specs []driverSpec
	for _, t := range targets {
		specs = append(specs, driverSpec{
			mods: []string{t.bug.Module}, bugs: modules.Bugs(t.bug.Switch), strategy: t.bug.Strategy,
			seed: seeds[0], repair: true, target: t.title,
		})
	}
	if err := b.traceDriver(specs, huntBudget); err != nil {
		return err
	}
	return runMicros(b)
}

// checkHunt applies the hunt's output checks to one (bug, seed) and
// records its exact counts for the determinism guard.
func (b *bench) checkHunt(t huntTarget, seed int64, find, fix passResult) {
	key := fmt.Sprintf("hunt/%s/%d", t.bug.Switch, seed)
	c := poolCounts(find.pool)
	c.MTIsToFind = uint64(find.tests)
	b.guard.record(key+"/find", c)
	c = poolCounts(fix.pool)
	if fix.repair != nil {
		c.Titles = append(c.Titles, fix.repair.Lines()...)
	}
	b.guard.record(key+"/fix", c)

	if !find.found {
		logf("hunt miss: %s seed=%d: %s not reported as an OOO bug within %d steps", t.bug.Switch, seed, t.title, huntBudget)
		return
	}
	if !fix.found {
		b.fail("%s seed=%d: found by the find pass but not by the fix pass", t.bug.Switch, seed)
		return
	}
	if t.bug.Switch == "watchqueue:pipe_wmb" {
		if msg := checkPipeWmbFix(fix.repair); msg != "" {
			b.fail("watchqueue:pipe_wmb seed=%d: %s", seed, msg)
		}
	}
}

// checkPipeWmbFix checks the Fig. 1 repair: the best suggestion is a
// single smp_wmb insertion that TSO does not need.
func checkPipeWmbFix(r *repair.Result) string {
	if len(r.Suggestions) == 0 {
		return "no repair suggestion"
	}
	s := r.Suggestions[0]
	if len(s.Fences) != 1 || s.Fences[0].Action != repair.ActionInsert || s.Fences[0].Barrier != "smp_wmb" {
		return fmt.Sprintf("best suggestion is %q, want one smp_wmb insertion", s.String())
	}
	for _, m := range s.Models {
		if m.Model == "tso" {
			if m.Status != repair.StatusUnnecessary {
				return fmt.Sprintf("tso verdict %q, want %q", m.Status, repair.StatusUnnecessary)
			}
			return ""
		}
	}
	return "no tso verdict"
}
