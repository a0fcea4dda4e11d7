package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ozz/internal/core"
)

// steady: every module on the fully fixed kernel, seed corpus on, long
// core.Pool campaigns. Nothing should be found, so no triage, probe or
// repair runs and the caches warm up: this isolates the hot path
// generate → profile → hints → MTI → merge.
const (
	steadyChunk = 1920 // steps timed as one sample; a multiple of the pool's 32-step batch
	steadySteps = 16 * steadyChunk
	// steadyCampaigns is the seed set size; a run covers the whole set at
	// least once. Campaigns differ by up to a third in MTIs per step, so
	// a run samples many of them: with a few, the seed's mix of campaigns
	// would move tests_per_s more than the program does.
	steadyCampaigns = 12
	poolWorkers     = 2 // never more goroutines executing kernels than the test machine's cores
	setupReps       = 9 // extra NewPool constructions so setup_s is a median
	driverSteps     = 10000
)

func steadyConfig(seed int64) core.Config {
	return core.Config{Seed: seed, UseSeeds: true}
}

// poolCounts extracts a finished pool campaign's exact counts. OOO
// titles are marked, so a change in triage outcome is a count change.
func poolCounts(p *core.Pool) counts {
	st := p.Stats()
	c := counts{
		Steps: st.Steps, STIs: st.STIs, MTIs: st.MTIs, Hints: st.Hints, Vacuous: st.Vacuous,
		Corpus: st.CorpusLen, Edges: p.CoverageEdges(),
	}
	for _, r := range p.Reports.All() {
		c.Titles = append(c.Titles, oooMark(r.OOO)+r.Title)
	}
	return c
}

func oooMark(ooo bool) string {
	if ooo {
		return "[ooo] "
	}
	return ""
}

func runSteady(b *bench) error {
	seeds := seedSet(b.seed, steadyCampaigns)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		core.NewPool(steadyConfig(seeds[i%len(seeds)]), poolWorkers)
		setups = append(setups, time.Since(t0).Seconds())
	}
	var tests, mtis, rss []float64
	falseOOO := make(map[string]bool)
	regs := make(scrape)
	start := time.Now()
	// A traced run covers the seed set once; an untraced one keeps
	// cycling through it until the window closes, so its later campaigns
	// also re-check determinism.
	for u := 0; u < len(seeds) || (!b.traced && time.Since(start) < b.window); u++ {
		s := seeds[u%len(seeds)]
		runtime.GC() // start every campaign on a collected heap
		resetPeakRSS()
		t0 := time.Now()
		p := core.NewPool(steadyConfig(s), poolWorkers)
		setups = append(setups, time.Since(t0).Seconds())
		// The campaign runs in chunks of whole batches — the same step
		// sequence as one long Run — and each chunk is one throughput
		// sample, so a short stall of the machine moves the median of a
		// run's samples little.
		t1 := time.Now()
		for n := 0; n < steadySteps; n += steadyChunk {
			c0, before := time.Now(), p.Stats().MTIs
			p.Run(steadyChunk)
			el := time.Since(c0).Seconds()
			tests = append(tests, steadyChunk/el)
			mtis = append(mtis, float64(p.Stats().MTIs-before)/el)
		}
		el := time.Since(t1).Seconds()
		rss = append(rss, peakRSSMB())
		st := p.Stats()
		c := poolCounts(p)
		b.guard.record(fmt.Sprintf("steady/%d", s), c)
		ooo := 0
		for _, r := range p.Reports.All() {
			if r.OOO {
				falseOOO[r.Title] = true
				ooo++
			}
		}
		// Only the first pass over the seed set counts toward attempted
		// and failed: a later pass repeats the same campaigns, and the
		// determinism guard holds it to the first.
		if u < len(seeds) {
			b.res.Attempted++
			if ooo > 0 {
				b.res.Failed++
			}
		}
		logf("steady campaign seed=%d: %d steps in %.2fs (%.0f tests/s), %d MTIs, corpus %d, edges %d, %d OOO titles",
			s, st.Steps, el, float64(st.Steps)/el, st.MTIs, c.Corpus, c.Edges, ooo)
		if u < len(seeds) {
			if err := regs.add(p.Obs()); err != nil {
				return err
			}
		}
		if u == 0 {
			b.set("core.corpus_programs", float64(c.Corpus))
			b.set("core.coverage_edges", float64(c.Edges))
		}
	}
	b.set("setup_s", median(setups))
	b.set("tests_per_s", median(tests))
	b.set("mtis_per_s", median(mtis))
	b.set("peak_rss_mb", median(rss))
	titles := make([]string, 0, len(falseOOO))
	for t := range falseOOO {
		titles = append(titles, t)
	}
	sort.Strings(titles)
	b.set("false_ooo", float64(len(titles)))
	logf("false_ooo = %d OOO-classified titles on the fixed kernel %q (expected 0)", len(titles), titles)
	if !b.traced {
		return nil
	}
	b.setEngineRatios(regs)
	if err := b.traceDriver([]driverSpec{{seed: seeds[0], useSeeds: true}}, driverSteps); err != nil {
		return err
	}
	return runMicros(b)
}

// setEngineRatios reads the per-layer ratios and per-MTI counts of the
// core, engine, hints, oemu and sched layers from scraped pool
// registries.
func (b *bench) setEngineRatios(s scrape) {
	frac := func(a, c string) float64 { return ratio(s[a], s[a]+s[c]) }
	b.set("engine.sti_cache_hit_ratio", frac(`ozz_sti_cache_lookups_total{outcome="hit"}`, `ozz_sti_cache_lookups_total{outcome="miss"}`))
	b.set("engine.kernel_recycle_ratio", frac(`ozz_kernel_acquires_total{source="recycled"}`, `ozz_kernel_acquires_total{source="built"}`))
	b.set("engine.plan_cache_hit_ratio", frac(`ozz_plan_cache_lookups_total{outcome="hit"}`, `ozz_plan_cache_lookups_total{outcome="miss"}`))
	mtis := s["ozz_campaign_mtis_total"]
	b.set("engine.vacuous_ratio", ratio(s["ozz_campaign_vacuous_mtis_total"], mtis))
	b.set("hints.per_pair", ratio(s["ozz_campaign_hints_total"], s[`ozz_stage_duration_seconds_count{stage="hints"}`]))
	b.set("oemu.delayed_stores_per_mti", ratio(s["ozz_oemu_delayed_stores_total"], mtis))
	b.set("oemu.versioned_loads_per_mti", ratio(s["ozz_oemu_versioned_loads_total"], mtis))
	b.set("sched.preemptions_per_mti", ratio(s["ozz_sched_preemptions_total"], mtis))
}
