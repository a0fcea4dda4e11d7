package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ozz/internal/core"
	"ozz/internal/dist"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
)

// fleet: an in-process dist.Manager behind a loopback HTTP server and
// two dist.Workers each running a one-wide pool with every bug switch
// on. Completion, report and corpus messages arrive while workers poll
// and sync, and every lease builds a fresh core.Pool, so the engine
// caches steady keeps warm stay cold here.
//
// The timed campaigns keep the manager's state in memory. A durable
// state directory fsyncs every WAL record before the handler replies,
// which makes the fleet's throughput track the disk latency of the
// machine rather than the program; the traced run measures the durable
// manager instead, for the WAL rows and its cost against the timed one.
const (
	fleetSteps    = 10000
	fleetPlans    = 2 // seed set size; a run covers the whole set at least once
	fleetWorkers  = 2
	fleetDeadline = 120 * time.Second // a fleet that has not finished by now has hung
)

// fleetConfig is one campaign plan; stateDir empty gives the in-memory
// manager RunShardsLocal expects.
func fleetConfig(seed int64, stateDir string) dist.ManagerConfig {
	var bugs []string
	for _, bi := range modules.AllBugs() {
		bugs = append(bugs, bi.Switch)
	}
	sort.Strings(bugs)
	return dist.ManagerConfig{
		Campaign:   dist.CampaignSpec{Bugs: bugs},
		TotalSteps: fleetSteps,
		ShardSteps: batchSteps,
		Seed:       seed,
		StateDir:   stateDir,
	}
}

// fleetRun is one finished fleet campaign.
type fleetRun struct {
	setup, elapsed time.Duration
	peakRSS        float64 // MB, this campaign's resident-set high-water mark
	shards, total  int
	mtis           float64
	retries        int64
	titles         []string // sorted
	ooo            map[string]bool
	mgr, workers   scrape
	trace          *fleetTrace // traced runs only
}

// retryCounter counts the workers' dist.retry warnings: RPCs that failed
// and were retried.
type retryCounter struct{ n atomic.Int64 }

func (c *retryCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte(`"kind":"dist.retry"`))))
	return len(p), nil
}

// fleetUnit runs one whole fleet campaign, with its manager's state in a
// fresh state directory when durable. setup_s covers NewManager, the
// server start and both workers' registration; the campaign is timed
// from there until the manager has every shard's completion.
func (b *bench) fleetUnit(seed int64, durable, traced bool) (*fleetRun, error) {
	var dir string
	if durable {
		d, err := os.MkdirTemp(b.outDir, "fleet-state-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	var ft *fleetTrace
	if traced {
		ft = &fleetTrace{tr: b.tr}
	}

	runtime.GC() // start every campaign on a collected heap
	resetPeakRSS()
	t0 := time.Now()
	m, err := dist.NewManager(fleetConfig(seed, dir))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	var handler http.Handler = m.Handler()
	if ft != nil {
		handler = ft.handler(handler)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
	defer cancel()
	var (
		wg      sync.WaitGroup
		retries retryCounter
		events  = obs.NewEventLog(&retries, obs.LevelWarn)
		regs    = make([]*obs.Registry, fleetWorkers)
		errs    = make([]error, fleetWorkers)
	)
	for i := range regs {
		regs[i] = obs.NewRegistry()
		cfg := dist.WorkerConfig{
			ManagerURL:  srv.URL,
			Name:        fmt.Sprintf("w%d", i+1),
			PoolWorkers: 1,
			Obs:         regs[i],
			Events:      events,
		}
		if ft != nil {
			cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: ft.transport(i)}
		}
		w := dist.NewWorker(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
			if ft != nil {
				ft.workerDone(i)
			}
		}()
	}
	for m.WorkersConnected() < fleetWorkers && ctx.Err() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	// The campaign ends when the manager holds every shard's completion.
	// Waiting for the workers to return instead would add the idle poll
	// back-off (half a heartbeat period) a worker may be sleeping in when
	// the other one completes the last shard.
	r := &fleetRun{setup: time.Since(t0)}
	t1 := time.Now()
	for !m.Done() && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	r.elapsed = time.Since(t1)
	wg.Wait()
	r.peakRSS = peakRSSMB()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet worker %d: %w", i+1, err)
		}
	}
	srv.Close()
	if err := m.Close(); err != nil {
		return nil, fmt.Errorf("closing fleet manager: %w", err)
	}
	r.shards, r.total = m.ShardsCompleted(), m.ShardsTotal()
	r.retries = retries.n.Load()
	r.titles, r.ooo = titleSet(m.Reports())
	r.mgr, r.workers = make(scrape), make(scrape)
	if err := r.mgr.add(m.Obs()); err != nil {
		return nil, err
	}
	for _, reg := range regs {
		if err := r.workers.add(reg); err != nil {
			return nil, err
		}
	}
	r.mtis = r.workers["ozz_campaign_mtis_total"]
	r.trace = ft
	return r, nil
}

func runFleet(b *bench) error {
	seeds := seedSet(b.seed, fleetPlans)
	want := make(map[int64]*fleetRef)
	for _, s := range seeds {
		want[s] = b.fleetReference(s)
	}
	var setups, tests, mtis, shards, rss []float64
	var inMemory time.Duration
	start := time.Now()
	// A traced run covers the seed set once; an untraced one keeps
	// cycling through it until the window closes. Only the first pass
	// over the set counts toward attempted and failed: a later pass
	// repeats the same plans, and the determinism guard and the output
	// checks hold it to the first.
	for u := 0; u < len(seeds) || (!b.traced && time.Since(start) < b.window); u++ {
		s := seeds[u%len(seeds)]
		r, err := b.fleetUnit(s, false, false)
		if err != nil {
			return err
		}
		b.checkFleet(s, r, want[s], u < len(seeds))
		el := r.elapsed.Seconds()
		setups = append(setups, r.setup.Seconds())
		tests = append(tests, fleetSteps/el)
		mtis = append(mtis, r.mtis/el)
		shards = append(shards, float64(r.shards)/el)
		rss = append(rss, r.peakRSS)
		logf("fleet plan seed=%d: %d/%d shards in %.2fs (%.1f shards/s), setup %.1fms, %d titles, %d RPC retries",
			s, r.shards, r.total, el, shards[len(shards)-1], 1000*r.setup.Seconds(), len(r.titles), r.retries)
		if u < len(seeds) {
			inMemory += r.elapsed
		}
	}
	b.set("setup_s", median(setups))
	b.set("tests_per_s", median(tests))
	b.set("mtis_per_s", median(mtis))
	b.set("shards_per_s", median(shards))
	b.set("peak_rss_mb", median(rss))
	if !b.traced {
		return nil
	}

	// Traced run: the seed set twice more on a durable manager, first
	// untraced, against the in-memory pass above (the WAL's cost), then
	// with spans on, against the untraced durable pass (the tracing's
	// cost).
	var durable, traced time.Duration
	for _, s := range seeds {
		r, err := b.fleetUnit(s, true, false)
		if err != nil {
			return err
		}
		b.checkFleet(s, r, want[s], false)
		durable += r.elapsed
	}
	from := b.tr.mark()
	var runs []*fleetRun
	for _, s := range seeds {
		b.tr.on.Store(true)
		r, err := b.fleetUnit(s, true, true)
		b.tr.on.Store(false)
		if err != nil {
			return err
		}
		b.checkFleet(s, r, want[s], false)
		runs = append(runs, r)
		traced += r.elapsed
	}
	b.set("dist.wal_overhead_ratio", ratio(durable.Seconds(), inMemory.Seconds())-1)
	b.set("trace.overhead_ratio", ratio(traced.Seconds(), durable.Seconds())-1)
	logf("trace: fleet seed set in %.2fs in memory, %.2fs durable, %.2fs durable and traced",
		inMemory.Seconds(), durable.Seconds(), traced.Seconds())
	b.setFleetLayers(from, runs)
	return runMicros(b)
}

// fleetRef is the standalone view of one plan, computed outside any
// timed window.
type fleetRef struct {
	titles []string        // sorted titles of dist.RunShardsLocal on the plan
	ooo    map[string]bool // their classification there
	// classes holds every (title, OOO) pair some shard of the plan
	// reports. The manager keeps the first report of a title to arrive,
	// RunShardsLocal the first in plan order, so a title two shards
	// classify differently may be classified either way by the fleet.
	classes map[titleClass]bool
}

type titleClass struct {
	title string
	ooo   bool
}

// fleetReference runs the plan through dist.RunShardsLocal, and each of
// its shards once more on its own, configured as a worker configures a
// lease's pool, for the classifications each shard gives. Merged in plan
// order the shards must give RunShardsLocal's result.
func (b *bench) fleetReference(seed int64) *fleetRef {
	cfg := fleetConfig(seed, "")
	set, _ := dist.RunShardsLocal(cfg, poolWorkers)
	ref := &fleetRef{classes: make(map[titleClass]bool)}
	ref.titles, ref.ooo = titleSet(set.All())
	merged := report.NewSet()
	for _, sh := range dist.Shards(seed, cfg.TotalSteps, cfg.ShardSteps) {
		p := core.NewPool(core.Config{
			Bugs: modules.Bugs(cfg.Campaign.Bugs...), Seed: sh.Seed, Model: memmodel.LKMM,
		}, poolWorkers)
		p.Run(sh.Steps)
		for _, r := range p.Reports.All() {
			ref.classes[titleClass{r.Title, r.OOO}] = true
			merged.Add(r)
		}
	}
	titles, ooo := titleSet(merged.All())
	if !reflect.DeepEqual(titles, ref.titles) || !reflect.DeepEqual(ooo, ref.ooo) {
		b.fail("fleet plan seed=%d: its shards one by one give titles %q (OOO %v), RunShardsLocal %q (OOO %v)",
			seed, titles, ooo, ref.titles, ref.ooo)
	}
	return ref
}

// titleSet returns the sorted titles of a report set and which of them
// are classified as OOO bugs.
func titleSet(reps []*report.Report) ([]string, map[string]bool) {
	titles := make([]string, 0, len(reps))
	ooo := make(map[string]bool)
	for _, rep := range reps {
		titles = append(titles, rep.Title)
		if rep.OOO {
			ooo[rep.Title] = true
		}
	}
	sort.Strings(titles)
	return titles, ooo
}

// checkFleet applies the fleet's output checks and records its exact
// counts: every shard completes, the titles are RunShardsLocal's, and
// each title is classified as some shard of the plan classifies it. A
// plan's first run adds its shards to attempted, and to failed those
// that did not complete plus the RPCs that failed and were retried.
func (b *bench) checkFleet(seed int64, r *fleetRun, want *fleetRef, first bool) {
	if first {
		b.res.Attempted += r.total
		b.res.Failed += r.total - r.shards + int(r.retries)
	} else if r.retries > 0 {
		logf("fleet plan seed=%d: %d RPCs failed and were retried", seed, r.retries)
	}
	if r.shards != r.total {
		b.fail("fleet plan seed=%d: %d of %d shards completed", seed, r.shards, r.total)
	}
	if !reflect.DeepEqual(r.titles, want.titles) {
		b.fail("fleet plan seed=%d: titles %q, standalone run of the same plan %q", seed, r.titles, want.titles)
	}
	for _, t := range r.titles {
		switch {
		case !want.classes[titleClass{t, r.ooo[t]}]:
			b.fail("fleet plan seed=%d: %q classified OOO=%v, which no shard of the plan reports", seed, t, r.ooo[t])
		case r.ooo[t] != want.ooo[t]:
			logf("fleet plan seed=%d: %q classified OOO=%v by the shard whose report arrived first, OOO=%v by RunShardsLocal",
				seed, t, r.ooo[t], want.ooo[t])
		}
	}
	b.guard.record(fmt.Sprintf("fleet/%d", seed), counts{
		Shards: r.shards, Corpus: int(r.mgr["ozz_dist_corpus_programs"]), Titles: r.titles,
	})
}

// setFleetLayers reports the dist layer's rows from the traced run's
// spans and the manager's counters, and the pool layers' rows from the
// stage histograms the workers' pools export.
func (b *bench) setFleetLayers(from int, runs []*fleetRun) {
	pct := func(name string, q float64) float64 { return quantile(b.tr.durations(from, name), q) }
	for _, ep := range []string{"poll", "sync", "report"} {
		b.set("dist."+ep+"_p50_ms", pct("dist."+ep, 0.5))
		b.set("dist."+ep+"_p99_ms", pct("dist."+ep, 0.99))
	}
	b.set("dist.handler_p50_ms", pct("dist.handler", 0.5))
	b.set("dist.handler_p99_ms", pct("dist.handler", 0.99))
	var leaseTimes []time.Duration
	var attempts, errors, wall int64
	var shards float64
	mgr, w := make(scrape), make(scrape)
	for _, r := range runs {
		leaseTimes = append(leaseTimes, r.trace.leaseTimes()...)
		attempts += r.trace.attempts.Load()
		errors += r.trace.errors.Load()
		wall += r.trace.wall()
		shards += float64(r.shards)
		for k, v := range r.mgr {
			mgr[k] += v
		}
		for k, v := range r.workers {
			w[k] += v
		}
	}
	leases := durationsMS(leaseTimes)
	b.set("dist.lease_p50_ms", median(leases))
	b.set("dist.lease_p99_ms", quantile(leases, 0.99))
	logf("trace: %d poll, %d handler, %d lease samples", len(b.tr.durations(from, "dist.poll")),
		len(b.tr.durations(from, "dist.handler")), len(leases))
	var walRecords float64
	for k, v := range mgr {
		if strings.HasPrefix(k, "ozz_dist_wal_records_total{") {
			walRecords += v
		}
	}
	b.set("dist.wal_records_per_shard", walRecords/shards)
	b.set("dist.wal_bytes_per_shard", mgr["ozz_dist_wal_bytes_total"]/shards)
	b.set("dist.sync_bytes_per_shard", (mgr[`ozz_dist_sync_bytes_total{direction="in"}`]+mgr[`ozz_dist_sync_bytes_total{direction="out"}`])/shards)
	b.set("rpc_error_ratio", ratio(float64(errors), float64(attempts)))

	b.setEngineRatios(w)
	const stage = "ozz_stage_duration_seconds"
	b.set("core.generate_us", w.histMeanUS(stage, `stage="generate"`))
	b.set("core.merge_us", w.histMeanUS(stage, `stage="merge"`))
	b.set("engine.sti_us", w.histMeanUS(stage, `stage="profile"`))
	b.set("engine.mti_us", w.histMeanUS(stage, `stage="mti"`))
	b.set("engine.triage_us", w.histMeanUS(stage, `stage="triage"`))
	b.set("hints.calc_us", w.histMeanUS(stage, `stage="hints"`))
	b.set("core.corpus_programs", runs[0].mgr["ozz_dist_corpus_programs"])

	// Lease batches are core-layer spans; the engine and hints time the
	// workers' one-wide pools spent inside them comes from the same
	// stage histograms, so it moves from core to those layers.
	self, roots := b.tr.selfTimes(from)
	engineNS := int64(1e9 * (w[stage+`_sum{stage="profile"}`] + w[stage+`_sum{stage="mti"}`] + w[stage+`_sum{stage="triage"}`]))
	hintsNS := int64(1e9 * w[stage+`_sum{stage="hints"}`])
	self["engine"] += engineNS
	self["hints"] += hintsNS
	self["core"] -= engineNS + hintsNS
	b.setShares(self, roots, wall)
}

// fleetTrace records the fleet's spans from outside the program: a
// timing http.RoundTripper per worker, a wrapper around the manager's
// handler, and lease spans derived from the poll bodies the round
// tripper sees (receipt in a poll reply, completion in a later poll
// request).
type fleetTrace struct {
	tr               *tracer
	attempts, errors atomic.Int64
	mu               sync.Mutex
	workers          [fleetWorkers]workerTrace
}

// workerTrace is one worker's timeline.
type workerTrace struct {
	start, end int64
	received   map[uint64]int64 // lease ID -> receipt time
	leaseTimes []time.Duration
	batch      int64 // open lease-batch span, 0 if none
}

// spanHeader carries the client span ID to the handler wrapper so the
// handler span can name its parent.
const spanHeader = "X-Ozzbench-Span"

func (f *fleetTrace) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sp := f.tr.begin("dist.handler", "dist", parent, 0)
		if r.URL.Path == dist.PathHeartbeat {
			f.tr.offPath(sp)
		}
		h.ServeHTTP(w, r)
		f.tr.end(sp)
	})
}

func (f *fleetTrace) transport(worker int) http.RoundTripper {
	f.mu.Lock()
	f.workers[worker] = workerTrace{start: f.tr.now(), received: make(map[uint64]int64)}
	f.mu.Unlock()
	return &timingTransport{f: f, worker: worker, base: http.DefaultTransport}
}

func (f *fleetTrace) workerDone(worker int) {
	f.mu.Lock()
	f.workers[worker].end = f.tr.now()
	f.mu.Unlock()
}

// wall is the traced wall time: both workers' lifetimes, summed.
func (f *fleetTrace) wall() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var w int64
	for _, wt := range f.workers {
		w += wt.end - wt.start
	}
	return w
}

func (f *fleetTrace) leaseTimes() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []time.Duration
	for _, wt := range f.workers {
		out = append(out, wt.leaseTimes...)
	}
	return out
}

// timingTransport is the worker-side half of the fleet trace.
type timingTransport struct {
	f      *fleetTrace
	worker int
	base   http.RoundTripper
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.f
	endpoint := req.URL.Path[1:]
	now := f.tr.now()
	body, err := readBody(&req.Body)
	if err != nil {
		return nil, err
	}
	req = req.Clone(req.Context())
	req.Body = io.NopCloser(bytes.NewReader(body))
	f.mu.Lock()
	wt := &f.workers[t.worker]
	var parent int64
	switch endpoint {
	case "heartbeat":
	case "poll":
		// A poll closes the open lease batch and reports the leases it
		// completed.
		if wt.batch != 0 {
			f.tr.end(wt.batch)
			wt.batch = 0
		}
		var pr dist.PollRequest
		if json.Unmarshal(body, &pr) == nil {
			for _, id := range pr.Completed {
				if at, ok := wt.received[id]; ok {
					wt.leaseTimes = append(wt.leaseTimes, time.Duration(now-at))
					delete(wt.received, id)
				}
			}
		}
	default:
		parent = wt.batch
	}
	f.mu.Unlock()

	sp := f.tr.begin("dist."+endpoint, "dist", parent, int64(t.worker+1))
	if endpoint == "heartbeat" {
		// Heartbeats run beside the worker's loop, not on it.
		f.tr.offPath(sp)
	}
	req.Header.Set(spanHeader, strconv.FormatInt(sp, 10))
	f.attempts.Add(1)
	resp, err := t.base.RoundTrip(req)
	var respBody []byte
	if err == nil {
		respBody, err = readBody(&resp.Body)
	}
	f.tr.end(sp)
	if err != nil || resp.StatusCode >= 400 {
		f.errors.Add(1)
	}
	if err != nil || endpoint != "poll" {
		return resp, err
	}
	var pr dist.PollResponse
	if json.Unmarshal(respBody, &pr) == nil {
		leases := pr.Leases
		if len(leases) == 0 && pr.Lease != nil {
			leases = []*dist.Lease{pr.Lease}
		}
		if len(leases) > 0 {
			at := f.tr.now()
			f.mu.Lock()
			for _, l := range leases {
				wt.received[l.ID] = at
			}
			wt.batch = f.tr.begin("core.lease_batch", "core", 0, int64(leases[0].ID))
			f.mu.Unlock()
		}
	}
	return resp, nil
}

// readBody drains *body and replaces it with an in-memory copy.
func readBody(body *io.ReadCloser) ([]byte, error) {
	if *body == nil || *body == http.NoBody {
		return nil, nil
	}
	data, err := io.ReadAll(*body)
	(*body).Close()
	*body = io.NopCloser(bytes.NewReader(data))
	return data, err
}
