package main

import (
	"math/rand"
	"time"

	"ozz/internal/core"
	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/repair"
	"ozz/internal/syzlang"
)

// Campaign shape shared by the pool workloads and the serial driver:
// core.Config's defaults, spelled out because the driver has to apply
// them itself.
const (
	progLen         = 4
	maxPairs        = 8
	maxHintsPerPair = 8
	batchSteps      = 32 // core.Pool's merge batch; fleet shards use the same size
)

// driverSpec is one serial-driver campaign.
type driverSpec struct {
	mods     []string
	bugs     modules.BugSet
	strategy string
	seed     int64
	useSeeds bool
	repair   bool
	// target, when set, stops the campaign once this title is found as
	// an OOO bug (and, with repair on, its repair search concluded).
	target string
}

// serialDriver issues, one step at a time, the same public calls a
// core.Pool worker makes — program from the syzlang target, STI profile,
// hint calculation, MTI runs, triage and cross-model probes, the batched
// coverage merge and the repair search — each wrapped in a span. Spans
// cannot be placed inside the program, so this is how the benchmark
// attributes time to the core, engine, hints and repair layers.
type serialDriver struct {
	spec   driverSpec
	env    *core.Env
	target *syzlang.Target
	tr     *tracer

	cov    *core.ShardedCov
	mb     core.MergeBatch
	seeds  []*syzlang.Program
	corpus []*syzlang.Program
	titles map[string]bool
	steps  uint64
}

func newSerialDriver(spec driverSpec, tr *tracer) (*serialDriver, error) {
	env := core.NewEnv(spec.mods, spec.bugs)
	env.Model = memmodel.LKMM
	st, err := engine.ParseStrategy(spec.strategy)
	if err != nil {
		return nil, err
	}
	env.Strategy = st
	d := &serialDriver{
		spec:   spec,
		env:    env,
		target: modules.Target(spec.mods...),
		tr:     tr,
		cov:    core.NewShardedCov(),
		titles: make(map[string]bool),
	}
	if spec.useSeeds {
		for _, src := range modules.Seeds(spec.mods...) {
			if p, err := d.target.Parse(src); err == nil {
				d.seeds = append(d.seeds, p)
			}
		}
	}
	return d, nil
}

// stepResult is what one step hands to the batch merge.
type stepResult struct {
	prog        *syzlang.Program
	stiCov      map[uint64]struct{}
	mtiCov      map[uint64]struct{}
	foundTarget bool
}

// run executes up to maxSteps steps in merge batches and reports whether
// the target (if any) was reached.
func (d *serialDriver) run(maxSteps int) bool {
	for int(d.steps) < maxSteps {
		batch := make([]stepResult, 0, batchSteps)
		hit := false
		for i := 0; i < batchSteps && int(d.steps) < maxSteps; i++ {
			r := d.step()
			hit = hit || r.foundTarget
			batch = append(batch, r)
		}
		d.merge(batch)
		if hit {
			return true
		}
		if d.spec.target != "" && d.titles[d.spec.target] {
			// Reported, but not as a new OOO finding: title dedup keeps
			// it that way, so the hunt has missed, as the pool's has.
			return false
		}
	}
	return false
}

// step mirrors one pool job.
func (d *serialDriver) step() stepResult {
	idx := d.steps
	d.steps++
	root := d.tr.begin("core.step", "core", 0, int64(idx))
	defer d.tr.end(root)

	sp := d.tr.begin("core.generate", "core", root, int64(idx))
	prog := d.pick(rand.New(rand.NewSource(d.spec.seed ^ int64(idx+1)*0x5851f42d4c957f2d)))
	d.tr.end(sp)
	res := stepResult{prog: prog}

	sp = d.tr.begin("engine.sti", "engine", root, int64(idx))
	sti := d.env.RunSTICached(prog)
	d.tr.end(sp)
	res.stiCov = sti.Cov
	if sti.Crash != nil {
		d.add(sti.Crash.Title)
		return res
	}
	for _, t := range sti.Soft {
		d.add(t)
	}
	res.mtiCov = make(map[uint64]struct{})
	pairs := pairOrder(len(prog.Calls))
	if len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if len(sti.CallEvents[i]) == 0 || len(sti.CallEvents[j]) == 0 {
			continue
		}
		sp = d.tr.begin("hints.calc", "hints", root, int64(idx))
		hs := hints.CalculateModel(sti.CallEvents[i], sti.CallEvents[j], memmodel.LKMM)
		d.tr.end(sp)
		if len(hs) > maxHintsPerPair {
			hs = hs[:maxHintsPerPair]
		}
		for _, h := range hs {
			sp = d.tr.begin("engine.mti", "engine", root, int64(idx))
			mres := d.env.RunMTI(core.MTIOpts{Prog: prog, I: i, J: j, Hint: h})
			d.tr.end(sp)
			for e := range mres.Cov {
				if _, dup := res.stiCov[e]; !dup {
					res.mtiCov[e] = struct{}{}
				}
			}
			if d.harvest(root, int64(idx), prog, i, j, h, mres, sti) {
				res.foundTarget = true
			}
		}
	}
	return res
}

// harvest mirrors the pool's finding path for an MTI result: the
// NoReorder triage re-run of a crash, then for a new OOO title the
// cross-model probe and, with repair on, the fence-repair search. It
// reports whether the driver's target was just found (and repaired when
// asked).
func (d *serialDriver) harvest(root, unit int64, prog *syzlang.Program, i, j int, h *hints.Hint, mres *core.MTIResult, sti *core.STIResult) bool {
	hit := false
	if mres.Crash != nil {
		ooo := !mres.PrefixCrash
		if ooo {
			sp := d.tr.begin("engine.triage", "engine", root, unit)
			rerun := d.env.RunMTI(core.MTIOpts{Prog: prog, I: i, J: j, Hint: h, NoReorder: true})
			d.tr.end(sp)
			ooo = rerun.Crash == nil || rerun.Crash.Title != mres.Crash.Title
		}
		if d.add(mres.Crash.Title) && ooo {
			hit = d.newFinding(root, unit, prog, i, j, h, sti, mres.Crash.Title, false)
		}
	}
	for _, s := range mres.Soft {
		if d.add(s) {
			hit = d.newFinding(root, unit, prog, i, j, h, sti, s, true) || hit
		}
	}
	return hit
}

// add records a report title and reports whether it is new.
func (d *serialDriver) add(title string) bool {
	if d.titles[title] {
		return false
	}
	d.titles[title] = true
	return true
}

// newFinding runs the probe and repair a new OOO title gets.
func (d *serialDriver) newFinding(root, unit int64, prog *syzlang.Program, i, j int, h *hints.Hint, sti *core.STIResult, title string, soft bool) bool {
	for _, mm := range memmodel.All() {
		if mm == memmodel.LKMM {
			continue
		}
		sp := d.tr.begin("engine.probe", "engine", root, unit)
		d.env.RunMTIUnder(core.MTIOpts{Prog: prog, I: i, J: j, Hint: h}, mm)
		d.tr.end(sp)
	}
	if d.spec.repair {
		sp := d.tr.begin("repair.search", "repair", root, unit)
		repair.InVivo(repair.InVivoInput{
			Prog: prog, I: i, J: j, Hint: h, Events: sti.CallEvents, Title: title, Soft: soft,
		}, d.env, repair.Options{Model: memmodel.LKMM})
		d.tr.end(sp)
	}
	return title == d.spec.target
}

// merge publishes one batch's coverage in step order, as the pool does
// at its batch boundary, and admits coverage-growing programs.
func (d *serialDriver) merge(batch []stepResult) {
	sp := d.tr.begin("core.merge", "core", 0, int64(d.steps))
	maps := make([]map[uint64]struct{}, 0, 2*len(batch))
	for _, r := range batch {
		maps = append(maps, r.stiCov, r.mtiCov)
	}
	counts := d.cov.MergeNewOrdered(maps, &d.mb)
	for bi, r := range batch {
		if counts[2*bi] > 0 {
			d.corpus = append(d.corpus, r.prog)
		}
	}
	d.tr.end(sp)
}

// pick chooses the step's program the way the pool plans a step: seed
// corpus first, then a mutated corpus program two times in three, else a
// fresh module-focused program.
func (d *serialDriver) pick(rng *rand.Rand) *syzlang.Program {
	switch {
	case len(d.seeds) > 0:
		p := d.seeds[0]
		d.seeds = d.seeds[1:]
		return p
	case len(d.corpus) > 0 && rng.Intn(3) != 0:
		return d.target.Mutate(rng, d.corpus[rng.Intn(len(d.corpus))])
	default:
		mods := d.target.Modules()
		return d.target.GenerateFocused(rng, progLen, mods[rng.Intn(len(mods))])
	}
}

// pairOrder enumerates call pairs adjacent-first, as the pool does.
func pairOrder(n int) [][2]int {
	var pairs [][2]int
	for dist := 1; dist < n; dist++ {
		for i := 0; i+dist < n; i++ {
			pairs = append(pairs, [2]int{i, i + dist})
		}
	}
	return pairs
}

// traceDriver runs the serial driver over the given campaigns twice, with
// spans off and then on, and reports the per-layer span timings, the
// self-time shares with their residue, and the tracing overhead.
func (b *bench) traceDriver(specs []driverSpec, maxSteps int) error {
	pass := func(on bool) (time.Duration, uint64, error) {
		b.tr.on.Store(on)
		defer b.tr.on.Store(false)
		var steps uint64
		t0 := time.Now()
		for _, sp := range specs {
			d, err := newSerialDriver(sp, b.tr)
			if err != nil {
				return 0, 0, err
			}
			d.run(maxSteps)
			steps += d.steps
		}
		return time.Since(t0), steps, nil
	}
	off, offSteps, err := pass(false)
	if err != nil {
		return err
	}
	from := b.tr.mark()
	startNS := b.tr.now()
	on, onSteps, err := pass(true)
	if err != nil {
		return err
	}
	wall := b.tr.now() - startNS
	if offSteps != onSteps {
		b.fail("serial driver ran %d steps traced, %d untraced", onSteps, offSteps)
	}
	overhead := ratio(on.Seconds(), off.Seconds()) - 1
	b.set("trace.overhead_ratio", overhead)
	logf("trace: serial driver %.0f tests/s untraced, %.0f tests/s traced (overhead %+.1f%%)",
		float64(offSteps)/off.Seconds(), float64(onSteps)/on.Seconds(), 100*overhead)
	us := func(name string) float64 { return 1000 * median(b.tr.durations(from, name)) }
	b.set("core.generate_us", us("core.generate"))
	b.set("core.merge_us", us("core.merge"))
	b.set("engine.sti_us", us("engine.sti"))
	b.set("engine.mti_us", us("engine.mti"))
	b.set("engine.triage_us", us("engine.triage"))
	b.set("engine.probe_us", us("engine.probe"))
	b.set("hints.calc_us", us("hints.calc"))
	if rs := b.tr.durations(from, "repair.search"); len(rs) > 0 {
		b.set("repair.search_p50_ms", median(rs))
		b.set("repair.search_p90_ms", quantile(rs, 0.9))
		logf("trace: %d repair searches", len(rs))
	}
	self, roots := b.tr.selfTimes(from)
	b.setShares(self, roots, wall)
	return nil
}
