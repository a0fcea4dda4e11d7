package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// CampaignConfig parameterizes one hosted campaign. The manager-wide
// liveness timings (lease TTL, heartbeat cadence) live on ManagerConfig;
// everything that defines the campaign's work and identity lives here.
type CampaignConfig struct {
	// Campaign is the campaign configuration shipped to workers.
	Campaign CampaignSpec
	// TotalSteps is the whole campaign's step budget across all shards.
	TotalSteps int
	// ShardSteps is the per-lease step budget (default 64).
	ShardSteps int
	// Seed is the base campaign seed the shard seeds derive from.
	Seed int64
	// Token, when non-empty, is the campaign's auth token: every request
	// addressing the campaign must carry it or is rejected with HTTP 403.
	// Tokens are configuration, never persisted or exported.
	Token string
}

// defaultShardSteps is the per-lease step budget when none is configured.
const defaultShardSteps = 64

// normalize resolves the campaign defaults.
func (c *CampaignConfig) normalize() {
	if c.ShardSteps <= 0 {
		c.ShardSteps = defaultShardSteps
	}
}

// workerState is the manager's view of one registered worker.
type workerState struct {
	id        int
	name      string
	lastSeen  time.Time
	connected bool
	leases    map[uint64]struct{}
}

// shardState tracks one shard through grants, reassignments, and
// completion.
type shardState struct {
	shard     Shard
	completed bool
}

// leaseState is one outstanding grant.
type leaseState struct {
	id     uint64
	shard  int
	worker int
	expiry time.Time
	// stolen marks a duplicate lease granted by work stealing; if it
	// completes its shard first, that is a steal win.
	stolen bool
}

// campaign is one hosted campaign's entire state: the shard frontier,
// worker and lease tables, merged corpus, deduplicated report set, the
// registration epoch, and (when the manager has a state directory) the
// open write-ahead log. All fields are guarded by the owning Manager's
// mutex; methods with the Locked suffix assume it is held.
type campaign struct {
	m      *Manager
	name   string
	cfg    CampaignConfig
	target *syzlang.Target

	// epoch is the registration epoch: 1 on a fresh campaign, +1 on
	// every recovery from persistent state. Lease IDs embed it
	// (epoch<<32 | sequence) so IDs never collide across restarts.
	epoch uint64

	workers     map[int]*workerState
	nextWorker  int
	shards      []*shardState
	pending     []int // shard indexes awaiting a worker, FIFO
	inflight    map[uint64]*leaseState
	leaseByID   map[uint64]int // every lease ever granted -> shard index
	nextLease   uint64         // per-epoch lease sequence
	completed   int
	doneEmitted bool

	corpus      map[string]*syzlang.Program // key hash -> program
	corpusOrder []string                    // key hashes in first-seen order
	reports     *report.Set

	// wal is the open write-ahead log, nil for in-memory campaigns (no
	// state directory) and after an append failure degraded the campaign
	// back to in-memory operation.
	wal *wal
}

// newCampaign builds an in-memory campaign over its derived shard plan.
func newCampaign(m *Manager, name string, cfg CampaignConfig) *campaign {
	cfg.normalize()
	c := &campaign{
		m:         m,
		name:      name,
		cfg:       cfg,
		target:    modules.Target(cfg.Campaign.Modules...),
		epoch:     1,
		workers:   make(map[int]*workerState),
		inflight:  make(map[uint64]*leaseState),
		leaseByID: make(map[uint64]int),
		corpus:    make(map[string]*syzlang.Program),
		reports:   report.NewSet(),
	}
	c.rebuildPlanLocked()
	return c
}

// rebuildPlanLocked derives the shard plan from the campaign config and
// queues every incomplete shard.
func (c *campaign) rebuildPlanLocked() {
	c.shards, c.pending = nil, nil
	for _, sh := range Shards(c.cfg.Seed, c.cfg.TotalSteps, c.cfg.ShardSteps) {
		c.shards = append(c.shards, &shardState{shard: sh})
		c.pending = append(c.pending, sh.Index)
	}
	c.completed = 0
}

// requeueIncompleteLocked rebuilds the pending queue as every shard not
// yet completed, in index order, dropping all in-flight leases — the
// recovery posture: shard execution is deterministic, so re-running work
// a pre-crash lease may still be chewing on is a harmless duplicate.
func (c *campaign) requeueIncompleteLocked() {
	c.pending = c.pending[:0]
	c.inflight = make(map[uint64]*leaseState)
	for _, st := range c.shards {
		if !st.completed {
			c.pending = append(c.pending, st.shard.Index)
		}
	}
}

// connectedLocked counts live workers.
func (c *campaign) connectedLocked() int {
	n := 0
	for _, ws := range c.workers {
		if ws.connected {
			n++
		}
	}
	return n
}

// doneLocked reports whether every shard has completed.
func (c *campaign) doneLocked() bool { return c.completed == len(c.shards) }

// journalLocked appends one WAL record, degrading the campaign to
// in-memory operation (with a warning event) if the append fails — a
// full disk must not take down fleet traffic.
func (c *campaign) journalLocked(t string, payload any) {
	if c.wal == nil {
		return
	}
	if err := c.wal.append(t, payload); err != nil {
		c.m.do.ev.Warn(0, "dist.wal.error", map[string]any{
			"campaign": c.name, "err": err.Error(),
		})
		_ = c.wal.close()
		c.wal = nil
		return
	}
	if every := c.m.cfg.SnapshotEvery; c.wal.records >= every {
		c.snapshotLocked()
	}
}

// registerLocked admits a worker, journals it, and — the re-register
// handshake — eagerly releases any leases still held by the worker's
// previous incarnation instead of letting them sit out the TTL sweep.
// It returns the new worker ID and the shard indexes requeued from the
// previous incarnation.
func (c *campaign) registerLocked(name string, prevWorker int) (int, []int) {
	c.nextWorker++
	id := c.nextWorker
	c.workers[id] = &workerState{
		id: id, name: name, lastSeen: c.m.now(),
		connected: true, leases: make(map[uint64]struct{}),
	}
	c.journalLocked(walWorker, walWorkerD{ID: id, Name: name})
	var requeued []int
	if pw := c.workers[prevWorker]; pw != nil && prevWorker != id {
		pw.connected = false
		for lid := range pw.leases {
			if ls := c.inflight[lid]; ls != nil && c.releaseLocked(lid) {
				requeued = append(requeued, ls.shard)
			}
		}
	}
	return id, requeued
}

// releaseLocked retires lease id: it leaves the in-flight table and its
// owner's lease set, and its shard, unless completed, is requeued at the
// tail of the pending queue. It reports whether the shard was requeued;
// callers emit their own events.
func (c *campaign) releaseLocked(id uint64) bool {
	ls := c.inflight[id]
	if ls == nil {
		return false
	}
	delete(c.inflight, id)
	if owner := c.workers[ls.worker]; owner != nil {
		delete(owner.leases, id)
	}
	if c.shards[ls.shard].completed {
		return false
	}
	c.pending = append(c.pending, ls.shard)
	c.m.do.leaseReassigns.Inc()
	return true
}

// touchLocked refreshes a worker's liveness. Returns nil for unknown or
// dead workers.
func (c *campaign) touchLocked(id int) *workerState {
	ws := c.workers[id]
	if ws == nil || !ws.connected {
		return nil
	}
	ws.lastSeen = c.m.now()
	return ws
}

// grantLocked grants up to a dynamically sized batch of leases to ws:
// ceil(pending / connected workers), capped by MaxLeaseBatch — a lone or
// fast worker drains several shards per round trip while a full fleet
// gets one each. When the pending queue is empty it falls back to work
// stealing: a duplicate lease on an in-flight shard (bounded by
// StealDuplicates per shard), so late-joining or fast workers race the
// original holder instead of idling; determinism makes whichever
// finishes first the winner and the other run a harmless duplicate.
func (c *campaign) grantLocked(ws *workerState) (granted []*Lease, stolen bool) {
	batch := 1
	if n := c.connectedLocked(); n > 0 {
		batch = (len(c.pending) + n - 1) / n
	}
	if batch < 1 {
		batch = 1
	}
	if max := c.m.cfg.MaxLeaseBatch; batch > max {
		batch = max
	}
	for len(granted) < batch && len(c.pending) > 0 {
		idx := c.pending[0]
		c.pending = c.pending[1:]
		granted = append(granted, c.leaseLocked(ws, idx, false))
	}
	if len(granted) == 0 {
		if idx, ok := c.stealTargetLocked(ws); ok {
			granted = append(granted, c.leaseLocked(ws, idx, true))
			c.m.do.stealGrants.Inc()
			stolen = true
		}
	}
	return granted, stolen
}

// stealTargetLocked picks the in-flight shard to duplicate for an idle
// worker: not completed, not already leased to this worker, fewer than
// 1+StealDuplicates outstanding leases, preferring the lease closest to
// expiry (the one most likely to need rescue).
func (c *campaign) stealTargetLocked(ws *workerState) (int, bool) {
	counts := make(map[int]int)
	mine := make(map[int]bool)
	for _, ls := range c.inflight {
		counts[ls.shard]++
		if ls.worker == ws.id {
			mine[ls.shard] = true
		}
	}
	best, bestExpiry, found := 0, time.Time{}, false
	for _, ls := range c.inflight {
		if c.shards[ls.shard].completed || mine[ls.shard] {
			continue
		}
		if counts[ls.shard] > c.m.cfg.StealDuplicates {
			continue
		}
		if !found || ls.expiry.Before(bestExpiry) {
			best, bestExpiry, found = ls.shard, ls.expiry, true
		}
	}
	return best, found
}

// leaseLocked mints one lease on shard idx for ws. Lease IDs embed the
// epoch (epoch<<32 | sequence) so a restarted manager can never re-mint
// an ID some surviving worker still holds from before the crash.
func (c *campaign) leaseLocked(ws *workerState, idx int, stolen bool) *Lease {
	c.nextLease++
	id := c.epoch<<32 | c.nextLease
	ls := &leaseState{
		id: id, shard: idx, worker: ws.id,
		expiry: c.m.now().Add(c.m.cfg.LeaseTTL), stolen: stolen,
	}
	c.inflight[id] = ls
	c.leaseByID[id] = idx
	ws.leases[id] = struct{}{}
	sh := c.shards[idx].shard
	c.m.do.leasesGranted.Inc()
	return &Lease{
		ID: id, Shard: sh.Index, Seed: sh.Seed, Steps: sh.Steps,
		TTLMS: c.m.cfg.LeaseTTL.Milliseconds(),
	}
}

// completeLocked marks a lease's shard done. Stale lease IDs (already
// reassigned, or granted by a pre-restart epoch) still complete their
// shard when known — the shard result is deterministic, so whoever
// finishes first wins and the rerun is a harmless duplicate; IDs from
// before the last restart are simply unknown and ignored.
func (c *campaign) completeLocked(ws *workerState, leaseID uint64) {
	idx, ok := c.leaseByID[leaseID]
	// A completed shard has no lease in flight: its completion retired
	// them all and purged it from the pending queue.
	if !ok || c.shards[idx].completed {
		return
	}
	var viaSteal bool
	if ls := c.inflight[leaseID]; ls != nil {
		viaSteal = ls.stolen
	}
	c.shards[idx].completed = true
	c.completed++
	c.m.do.leasesCompleted.Inc()
	if viaSteal {
		c.m.do.stealWins.Inc()
		c.m.do.ev.Info(ws.id, "dist.steal.win", map[string]any{
			"campaign": c.name, "lease": leaseID, "shard": idx,
		})
	}
	c.journalLocked(walComplete, walCompleteD{Shard: idx})
	// The shard may have been requeued, once per expired lease on it
	// (expiry raced completion): drop every copy from pending, and retire
	// every in-flight lease on it, this one and any duplicate. The shard
	// is already marked, so none is requeued.
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p != idx {
			kept = append(kept, p)
		}
	}
	c.pending = kept
	for id, ls := range c.inflight {
		if ls.shard == idx {
			c.releaseLocked(id)
		}
	}
	c.m.do.ev.Info(ws.id, "dist.lease_complete", map[string]any{
		"campaign": c.name, "lease": leaseID, "shard": idx,
		"done": c.completed, "total": len(c.shards),
	})
}

// admitProgramLocked merges one program into the campaign corpus,
// journaling genuinely new admissions. Reports whether it was new.
func (c *campaign) admitProgramLocked(p *syzlang.Program, journal bool) bool {
	h := progHash(p)
	if _, dup := c.corpus[h]; dup {
		return false
	}
	c.corpus[h] = p
	c.corpusOrder = append(c.corpusOrder, h)
	if journal {
		c.journalLocked(walProgram, walProgramD{Src: p.String()})
	}
	return true
}

// admitReportLocked merges one finding into the global deduplicated set,
// journaling new titles. Reports whether it was new.
func (c *campaign) admitReportLocked(r *report.Report, journal bool) bool {
	if !c.reports.Add(r) {
		return false
	}
	if journal {
		c.journalLocked(walReport, r)
	}
	return true
}

// snapshotLocked builds the campaign's snapshot.
func (c *campaign) buildSnapshotLocked() *CampaignSnapshot {
	snap := &CampaignSnapshot{
		Format: SnapshotFormat, Name: c.name, Epoch: c.epoch,
		Spec:       c.cfg.Campaign,
		TotalSteps: c.cfg.TotalSteps, ShardSteps: c.cfg.ShardSteps, Seed: c.cfg.Seed,
		NextWorker: c.nextWorker,
		Reports:    c.reports.All(),
	}
	for _, st := range c.shards {
		if st.completed {
			snap.Completed = append(snap.Completed, st.shard.Index)
		}
	}
	var ids []int
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		snap.Workers = append(snap.Workers, SnapshotWorker{ID: id, Name: c.workers[id].name})
	}
	progs := make([]*syzlang.Program, 0, len(c.corpusOrder))
	for _, h := range c.corpusOrder {
		progs = append(progs, c.corpus[h])
	}
	var sb strings.Builder
	_ = core.EncodePrograms(&sb, progs)
	snap.Corpus = sb.String()
	return snap
}

// snapshotLocked compacts the campaign's durable state: write the
// snapshot atomically, then reset the WAL.
func (c *campaign) snapshotLocked() {
	if c.wal == nil {
		return
	}
	snap := c.buildSnapshotLocked()
	dir := campaignDir(c.m.cfg.StateDir, c.name)
	if err := writeSnapshotFile(snapshotPath(dir), snap); err != nil {
		c.m.do.ev.Warn(0, "dist.wal.error", map[string]any{
			"campaign": c.name, "err": err.Error(),
		})
		return
	}
	records := c.wal.records
	if err := c.wal.reset(); err != nil {
		c.m.do.ev.Warn(0, "dist.wal.error", map[string]any{
			"campaign": c.name, "err": err.Error(),
		})
		_ = c.wal.close()
		c.wal = nil
		return
	}
	c.m.do.walSnaps.Inc()
	c.m.do.ev.Info(0, "dist.wal.snapshot", map[string]any{
		"campaign": c.name, "compacted_records": records,
		"corpus": len(c.corpusOrder), "reports": c.reports.Len(),
		"completed": c.completed,
	})
}

// restoreSnapshotLocked loads a snapshot's state into the campaign,
// replacing the in-memory plan and merged state. The snapshot's plan
// parameters win over the configured ones (resume must not re-shard a
// half-finished campaign because a flag changed), keeping the configured
// auth token.
func (c *campaign) restoreSnapshotLocked(snap *CampaignSnapshot) {
	c.cfg.Campaign = snap.Spec
	c.cfg.TotalSteps, c.cfg.ShardSteps, c.cfg.Seed = snap.TotalSteps, snap.ShardSteps, snap.Seed
	c.cfg.normalize()
	c.target = modules.Target(snap.Spec.Modules...)
	c.epoch = snap.Epoch
	c.doneEmitted = false
	c.rebuildPlanLocked()
	for _, idx := range snap.Completed {
		if idx >= 0 && idx < len(c.shards) && !c.shards[idx].completed {
			c.shards[idx].completed = true
			c.completed++
		}
	}
	c.nextWorker = snap.NextWorker
	c.workers = make(map[int]*workerState)
	for _, sw := range snap.Workers {
		c.workers[sw.ID] = &workerState{
			id: sw.ID, name: sw.Name, leases: make(map[uint64]struct{}),
		}
		if sw.ID > c.nextWorker {
			c.nextWorker = sw.ID
		}
	}
	c.corpus = make(map[string]*syzlang.Program)
	c.corpusOrder = nil
	if snap.Corpus != "" {
		progs, _ := core.DecodePrograms(strings.NewReader(snap.Corpus), c.target)
		for _, p := range progs {
			c.admitProgramLocked(p, false)
		}
	}
	c.reports = report.NewSet()
	for _, r := range snap.Reports {
		if r != nil && r.Title != "" {
			c.admitReportLocked(r, false)
		}
	}
}

// applyWALLocked applies one replayed WAL record.
func (c *campaign) applyWALLocked(t string, d json.RawMessage) {
	switch t {
	case walEpoch:
		var rec walEpochD
		if json.Unmarshal(d, &rec) == nil && rec.Epoch > c.epoch {
			c.epoch = rec.Epoch
		}
	case walWorker:
		var rec walWorkerD
		if json.Unmarshal(d, &rec) == nil && rec.ID > 0 {
			c.workers[rec.ID] = &workerState{
				id: rec.ID, name: rec.Name, leases: make(map[uint64]struct{}),
			}
			if rec.ID > c.nextWorker {
				c.nextWorker = rec.ID
			}
		}
	case walComplete:
		var rec walCompleteD
		if json.Unmarshal(d, &rec) == nil &&
			rec.Shard >= 0 && rec.Shard < len(c.shards) && !c.shards[rec.Shard].completed {
			c.shards[rec.Shard].completed = true
			c.completed++
		}
	case walProgram:
		var rec walProgramD
		if json.Unmarshal(d, &rec) == nil {
			if p, err := c.target.Parse(rec.Src); err == nil && len(p.Calls) > 0 {
				c.admitProgramLocked(p, false)
			}
		}
	case walReport:
		var rec report.Report
		if json.Unmarshal(d, &rec) == nil && rec.Title != "" {
			c.admitReportLocked(&rec, false)
		}
	}
}

// openStateLocked attaches the campaign to its state directory: restore
// the latest snapshot, replay the WAL over it (truncating a torn tail),
// bump the epoch, requeue incomplete shards, and open the log for
// appending. A campaign that restored anything counts one WAL replay.
func (c *campaign) openStateLocked() error {
	dir := campaignDir(c.m.cfg.StateDir, c.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dist: campaign state dir: %w", err)
	}
	snap, err := readSnapshotFile(snapshotPath(dir))
	if err != nil {
		return err
	}
	if snap != nil {
		c.restoreSnapshotLocked(snap)
	}
	replayed, torn, err := replayWAL(walPath(dir), c.applyWALLocked)
	if err != nil {
		return err
	}
	resumed := snap != nil || replayed > 0
	if resumed {
		c.m.do.walReplays.Inc()
		c.m.do.walReplayed.Add(uint64(replayed))
		if torn > 0 {
			c.m.do.walTorn.Inc()
		}
		c.epoch++
		c.requeueIncompleteLocked()
		for _, ws := range c.workers {
			ws.connected = false
		}
		c.m.do.ev.Info(0, "dist.wal.replay", map[string]any{
			"campaign": c.name, "snapshot": snap != nil,
			"records": replayed, "torn_bytes": torn, "epoch": c.epoch,
			"completed": c.completed, "corpus": len(c.corpusOrder),
			"reports": c.reports.Len(),
		})
	}
	w, err := openWAL(walPath(dir), c.m.do)
	if err != nil {
		return err
	}
	c.wal = w
	c.journalLocked(walEpoch, walEpochD{Epoch: c.epoch})
	if snap == nil {
		// First open under this state directory: persist the plan
		// parameters (spec, total/shard steps, seed) right away. They
		// live only in snapshots, and NewManager restores only campaign
		// directories that hold one.
		c.snapshotLocked()
	}
	return nil
}

// attachStateLocked opens the campaign's WAL for appending without
// restoring anything from disk — the import path, where whatever the
// state directory holds (a stale snapshot, an orphaned WAL from a
// degraded campaign) is precisely what the caller is replacing. The log
// is truncated so stale records cannot replay over the imported state on
// the next restart.
func (c *campaign) attachStateLocked() error {
	dir := campaignDir(c.m.cfg.StateDir, c.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dist: campaign state dir: %w", err)
	}
	w, err := openWAL(walPath(dir), c.m.do)
	if err != nil {
		return err
	}
	if err := w.reset(); err != nil {
		_ = w.close()
		return fmt.Errorf("dist: truncate wal for import: %w", err)
	}
	c.wal = w
	return nil
}
