package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ozz/internal/core"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// httptestServer serves an already-built manager over a test listener.
func httptestServer(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// durableConfig is fastManagerConfig plus a state directory.
func durableConfig(t *testing.T, totalSteps, shardSteps int) ManagerConfig {
	cfg := fastManagerConfig(totalSteps, shardSteps)
	cfg.StateDir = t.TempDir()
	return cfg
}

// testProgram parses one watchqueue program for corpus plumbing tests.
func testProgram(t *testing.T, src string) *syzlang.Program {
	t.Helper()
	p, err := modules.Target("watchqueue").Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestManagerRestartResume is the durability tentpole end to end: a
// manager accumulates state, "crashes" (a second manager opens the same
// state directory, exactly what a SIGKILL + restart does), and the
// successor resumes — epoch bumped, completed shards remembered, corpus
// and reports intact, stale-epoch traffic fenced with HTTP 410, and the
// re-registered fleet finishes the campaign with the exact standalone
// result.
func TestManagerRestartResume(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	wantReports, wantCorpus := RunShardsLocal(cfg, 2)

	m1, srvOld := startManager(t, cfg)
	client := srvOld.Client()

	// A hand-driven worker completes one shard and ships one program and
	// one finding, all of which must survive the crash.
	var reg RegisterResponse
	if err := postJSON(client, srvOld.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "w"}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Epoch != 1 {
		t.Fatalf("fresh campaign epoch = %d, want 1", reg.Epoch)
	}
	var poll PollResponse
	if err := postJSON(client, srvOld.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, &poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Leases) == 0 {
		t.Fatal("no lease granted")
	}
	// Run the first leased shard for real (as a worker would), then sync
	// its corpus plus one injected marker program, push its findings plus
	// one injected marker report, and only then ack the completion — the
	// same order a real worker uses, so nothing acked is ever unsynced.
	lease := poll.Leases[0]
	pool := core.NewPool(coreConfig(testCampaign(), memmodel.LKMM, lease.Seed, nil, nil), 2)
	pool.Run(lease.Steps)
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	shipped := append(pool.CorpusPrograms(), prog)
	keys := make([]string, 0, len(shipped))
	for _, p := range shipped {
		keys = append(keys, progHash(p))
	}
	var payload strings.Builder
	if err := core.EncodePrograms(&payload, shipped); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(client, srvOld.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
		Keys: keys, Programs: payload.String(),
	}, nil); err != nil {
		t.Fatal(err)
	}
	marker := &report.Report{Title: "KCSAN: data-race in restart_test"}
	if err := postJSON(client, srvOld.URL+PathReport, ReportRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
		Reports: append(pool.Reports.All(), marker),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(client, srvOld.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
		Completed: []uint64{lease.ID},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if m1.ShardsCompleted() != 1 {
		t.Fatalf("shards completed = %d, want 1", m1.ShardsCompleted())
	}

	// Crash: m1 is never closed — the successor opens the same state dir
	// over its live WAL handle, exactly the SIGKILL posture.
	srvOld.Close()
	m2, srvNew := startManager(t, cfg)

	if got := m2.Epoch(); got != 2 {
		t.Errorf("restarted epoch = %d, want 2", got)
	}
	if got := m2.do.walReplays.Value(); got < 1 {
		t.Errorf("wal_replays_total = %d, want >= 1", got)
	}
	if m2.ShardsCompleted() != 1 {
		t.Errorf("restarted manager remembers %d completed shards, want 1", m2.ShardsCompleted())
	}
	restored := make(map[string]struct{})
	for _, h := range m2.CorpusKeyHashes() {
		restored[h] = struct{}{}
	}
	for _, k := range keys {
		if _, ok := restored[k]; !ok {
			t.Errorf("restarted corpus lost journaled program %s", k)
		}
	}
	gotRestored := strings.Join(m2.ReportTitles(), "|")
	if !strings.Contains(gotRestored, marker.Title) {
		t.Errorf("restarted reports %q lost the journaled finding %q", gotRestored, marker.Title)
	}

	// Pre-restart identity is fenced off with HTTP 410 — the transparent
	// re-register cue.
	err := postJSON(srvNew.Client(), srvNew.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, nil)
	if errStatus(err) != 410 {
		t.Errorf("stale-epoch poll: err = %v, want HTTP 410", err)
	}

	// A real worker (which performs that re-register handshake internally
	// on the 410) finishes the campaign to the exact standalone result.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := testWorker(srvNew, "resumer").Run(ctx); err != nil {
		t.Fatalf("worker after restart: %v", err)
	}
	if !m2.Done() {
		t.Fatal("campaign not done after resumed run")
	}
	gotTitles := strings.Join(m2.ReportTitles(), "|")
	wantTitles := strings.Join(append(wantReports.Titles(), "KCSAN: data-race in restart_test"), "|")
	if sortedJoin(m2.ReportTitles()) != sortedJoin(strings.Split(wantTitles, "|")) {
		t.Errorf("resumed titles %q != standalone+injected %q", gotTitles, wantTitles)
	}
	// The resumed corpus must contain every standalone program (plus the
	// injected one).
	has := make(map[string]struct{})
	for _, h := range m2.CorpusKeyHashes() {
		has[h] = struct{}{}
	}
	for _, p := range wantCorpus {
		if _, ok := has[progHash(p)]; !ok {
			t.Errorf("resumed corpus lost standalone program %s", progHash(p))
		}
	}
}

// sortedJoin joins a sorted copy for order-insensitive comparison.
func sortedJoin(in []string) string { return strings.Join(sortedCopy(in), "|") }

// TestWALTornRecord: a crash mid-append leaves a torn final record; the
// restarted manager truncates it and resumes from the last intact state
// instead of erroring out.
func TestWALTornRecord(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	m1, _ := startManager(t, cfg)
	m1.mu.Lock()
	c := m1.camps[DefaultCampaign]
	c.admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	c.admitReportLocked(&report.Report{Title: "torn-test finding"}, true)
	m1.mu.Unlock()

	// Tear the tail: a record whose line was cut mid-write.
	wal := walPath(campaignDir(cfg.StateDir, DefaultCampaign))
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"program","crc":123,"d":{"src":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, _ := startManager(t, cfg)
	if got := m2.do.walTorn.Value(); got != 1 {
		t.Errorf("wal_torn_records_total = %d, want 1", got)
	}
	if m2.CorpusLen() != 1 {
		t.Errorf("corpus after torn-tail recovery = %d, want 1 (intact records replayed)", m2.CorpusLen())
	}
	if titles := m2.ReportTitles(); len(titles) != 1 || titles[0] != "torn-test finding" {
		t.Errorf("reports after torn-tail recovery = %v", titles)
	}
	// The truncation leaves a clean record boundary: a third manager must
	// replay without seeing any torn bytes.
	m3, _ := startManager(t, cfg)
	if got := m3.do.walTorn.Value(); got != 0 {
		t.Errorf("second recovery still sees a torn tail (%d)", got)
	}
	if m3.CorpusLen() != 1 {
		t.Errorf("second recovery corpus = %d, want 1", m3.CorpusLen())
	}
}

// TestWALTornRecordMissingNewline: a final record whose write was cut
// exactly at the line boundary — valid JSON, valid CRC, no trailing
// newline — is still the torn tail. It must not be applied (the next
// append would concatenate onto it and poison a later replay) and must
// be truncated so subsequent appends start from a clean boundary.
func TestWALTornRecordMissingNewline(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	m1, _ := startManager(t, cfg)
	m1.mu.Lock()
	m1.camps[DefaultCampaign].admitProgramLocked(
		testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	m1.mu.Unlock()

	d, err := json.Marshal(walProgramD{Src: "r0 = wq_create()\nwq_set_filter(r0, 0x2)\n"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(walRecord{T: walProgram, CRC: crc32.ChecksumIEEE(d), D: d})
	if err != nil {
		t.Fatal(err)
	}
	wal := walPath(campaignDir(cfg.StateDir, DefaultCampaign))
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil { // deliberately no '\n'
		t.Fatal(err)
	}
	f.Close()

	m2, _ := startManager(t, cfg)
	if got := m2.do.walTorn.Value(); got != 1 {
		t.Errorf("wal_torn_records_total = %d, want 1", got)
	}
	if m2.CorpusLen() != 1 {
		t.Errorf("corpus after recovery = %d, want 1 (the newline-less record must not apply)", m2.CorpusLen())
	}
	// The tail was truncated: this append lands on a clean boundary, and a
	// third manager replays everything without loss.
	m2.mu.Lock()
	m2.camps[DefaultCampaign].admitProgramLocked(
		testProgram(t, "r0 = wq_create()\nwq_post_notification(r0, 0x4)\n"), true)
	m2.mu.Unlock()
	m3, _ := startManager(t, cfg)
	if got := m3.do.walTorn.Value(); got != 0 {
		t.Errorf("second recovery still sees a torn tail (%d)", got)
	}
	if m3.CorpusLen() != 2 {
		t.Errorf("second recovery corpus = %d, want both intact programs", m3.CorpusLen())
	}
}

// TestRestartBeforeFirstSnapshotKeepsPlan: the plan parameters live only
// in snapshots, so a durable campaign writes one at first open — a crash
// before the first periodic compaction must restore the full shard plan
// (not a zero-shard husk) and keep the completions journaled meanwhile.
func TestRestartBeforeFirstSnapshotKeepsPlan(t *testing.T) {
	cfg := durableConfig(t, 10, 10)
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddCampaign("extra", CampaignConfig{
		Campaign: testCampaign(), TotalSteps: 20, ShardSteps: 10, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	m1.mu.Lock()
	c1 := m1.camps["extra"]
	id, _ := c1.registerLocked("w", 0)
	granted, _ := c1.grantLocked(c1.workers[id])
	if len(granted) == 0 {
		m1.mu.Unlock()
		t.Fatal("no lease granted on the extra campaign")
	}
	c1.completeLocked(c1.workers[id], granted[0].ID)
	m1.mu.Unlock()

	// Crash (no Close, so no shutdown compaction) and restart.
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2.mu.Lock()
	c2 := m2.camps["extra"]
	if c2 == nil {
		m2.mu.Unlock()
		t.Fatal("extra campaign not restored from the state dir")
	}
	shards, completed := len(c2.shards), c2.completed
	total, seed := c2.cfg.TotalSteps, c2.cfg.Seed
	done := c2.doneLocked()
	m2.mu.Unlock()
	if shards != 2 || total != 20 || seed != 5 {
		t.Errorf("restored plan: %d shards, total=%d, seed=%d; want 2 shards of the 20/5 plan", shards, total, seed)
	}
	if completed != 1 {
		t.Errorf("restored completed shards = %d, want the 1 journaled before the crash", completed)
	}
	if done {
		t.Error("half-finished campaign restored as instantly done")
	}
}

// TestWALOnlyCampaignRehostedByAddCampaign: a campaign directory holding
// only a WAL (a crash inside the campaign's first open, before its
// initial snapshot) carries no plan, so NewManager does not host it on
// its own; the operator's -add-campaign re-hosts it, replaying the WAL
// over the supplied plan and persisting that plan.
func TestWALOnlyCampaignRehostedByAddCampaign(t *testing.T) {
	cfg := durableConfig(t, 10, 10)
	extra := CampaignConfig{Campaign: testCampaign(), TotalSteps: 20, ShardSteps: 10, Seed: 5, Token: "tok"}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddCampaign("walonly", extra); err != nil {
		t.Fatal(err)
	}
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	m1.mu.Lock()
	m1.camps["walonly"].admitProgramLocked(prog, true)
	m1.mu.Unlock()
	// Leave the WAL-only layout: no snapshot.
	if err := os.Remove(snapshotPath(campaignDir(cfg.StateDir, "walonly"))); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range m2.Campaigns() {
		if name == "walonly" {
			t.Fatal("NewManager hosted a WAL-only campaign directory before it was re-added")
		}
	}
	if err := m2.AddCampaign("walonly", extra); err != nil {
		t.Fatal(err)
	}
	m2.mu.Lock()
	c2 := m2.camps["walonly"]
	shards, corpus, token := len(c2.shards), len(c2.corpusOrder), c2.cfg.Token
	m2.mu.Unlock()
	if shards != 2 {
		t.Errorf("re-added WAL-only campaign has %d shards, want the supplied 2-shard plan", shards)
	}
	if corpus != 1 {
		t.Errorf("re-hosting lost the WAL-replayed corpus: %d programs, want 1", corpus)
	}
	if token != "tok" {
		t.Errorf("re-added campaign token = %q, want %q", token, "tok")
	}
	// The supplied plan was persisted: a further restart restores it even
	// without another AddCampaign.
	m3, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m3.mu.Lock()
	shards = len(m3.camps["walonly"].shards)
	m3.mu.Unlock()
	if shards != 2 {
		t.Errorf("restart after re-hosting restored %d shards, want 2", shards)
	}
}

// TestLeaseExpiryAtTTLBoundary pins the sweep's comparison: a lease at
// exactly TTL is still live; one nanosecond past it is requeued.
func TestLeaseExpiryAtTTLBoundary(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	cfg.HeartbeatEvery = time.Hour // isolate lease expiry from worker death
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	now := base
	m.now = func() time.Time { return now }

	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	id, _ := c.registerLocked("w", 0)
	ws := c.workers[id]
	granted, _ := c.grantLocked(ws)
	m.mu.Unlock()
	if len(granted) != 1 {
		t.Fatalf("granted %d leases, want 1", len(granted))
	}

	now = base.Add(cfg.LeaseTTL) // exactly at the boundary
	m.mu.Lock()
	ws.lastSeen = now
	m.mu.Unlock()
	m.sweep()
	m.mu.Lock()
	inflight, pending := len(c.inflight), len(c.pending)
	m.mu.Unlock()
	if inflight != 1 || pending != 0 {
		t.Fatalf("at exactly TTL: inflight=%d pending=%d, want the lease still live", inflight, pending)
	}

	now = now.Add(time.Nanosecond) // one past the boundary
	m.mu.Lock()
	ws.lastSeen = now
	m.mu.Unlock()
	m.sweep()
	m.mu.Lock()
	inflight, pending = len(c.inflight), len(c.pending)
	m.mu.Unlock()
	if inflight != 0 || pending != 1 {
		t.Fatalf("past TTL: inflight=%d pending=%d, want the shard requeued", inflight, pending)
	}
	if got := m.do.leaseReassigns.Value(); got != 1 {
		t.Errorf("lease_reassignments_total = %d, want 1", got)
	}
}

// TestWorkStealing: with the pending queue empty, an idle worker gets a
// duplicate lease on an in-flight shard (capped by StealDuplicates), and
// finishing it first counts a steal win; determinism makes the race
// harmless.
func TestWorkStealing(t *testing.T) {
	cfg := fastManagerConfig(10, 10) // exactly one shard
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	id1, _ := c.registerLocked("holder", 0)
	g1, stolen1 := c.grantLocked(c.workers[id1])
	id2, _ := c.registerLocked("thief", 0)
	g2, stolen2 := c.grantLocked(c.workers[id2])
	id3, _ := c.registerLocked("late", 0)
	g3, _ := c.grantLocked(c.workers[id3])
	m.mu.Unlock()

	if len(g1) != 1 || stolen1 {
		t.Fatalf("holder grant = %d leases (stolen=%v), want 1 regular", len(g1), stolen1)
	}
	if len(g2) != 1 || !stolen2 || g2[0].Shard != g1[0].Shard {
		t.Fatalf("thief grant = %+v (stolen=%v), want a duplicate of shard %d", g2, stolen2, g1[0].Shard)
	}
	if len(g3) != 0 {
		t.Fatalf("third worker got %d leases, want 0 (StealDuplicates cap)", len(g3))
	}
	if got := m.do.stealGrants.Value(); got != 1 {
		t.Errorf("steal_grants_total = %d, want 1", got)
	}

	// The thief finishes first: a steal win; the holder's lease retires.
	m.mu.Lock()
	c.completeLocked(c.workers[id2], g2[0].ID)
	inflight := len(c.inflight)
	done := c.completed
	m.mu.Unlock()
	if done != 1 || inflight != 0 {
		t.Fatalf("after steal win: completed=%d inflight=%d, want 1 and 0", done, inflight)
	}
	if got := m.do.stealWins.Value(); got != 1 {
		t.Errorf("steal_wins_total = %d, want 1", got)
	}
	// The holder's late completion of the retired lease is a no-op.
	m.mu.Lock()
	c.completeLocked(c.workers[id1], g1[0].ID)
	done = c.completed
	m.mu.Unlock()
	if done != 1 {
		t.Errorf("duplicate completion double-counted: completed=%d", done)
	}
}

// TestEpochReregisterReleasesStaleLease: a worker that re-registers while
// its previous incarnation still holds an unexpired lease gets that lease
// eagerly released — the shard is grantable immediately, not after the
// TTL sweep.
func TestEpochReregisterReleasesStaleLease(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	cfg.LeaseTTL = time.Hour // the sweep alone would strand the shard
	m, srv := startManager(t, cfg)
	client := srv.Client()

	var reg RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "w"}, &reg); err != nil {
		t.Fatal(err)
	}
	var poll PollResponse
	if err := postJSON(client, srv.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, &poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Leases) != 1 {
		t.Fatalf("granted %d leases, want 1", len(poll.Leases))
	}

	// The worker restarts and re-registers, naming its previous identity.
	var reg2 RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Name: "w", PrevWorkerID: reg.WorkerID, PrevEpoch: reg.Epoch,
	}, &reg2); err != nil {
		t.Fatal(err)
	}
	if reg2.WorkerID == reg.WorkerID {
		t.Fatalf("re-register reused worker ID %d", reg.WorkerID)
	}
	// Released by the register itself, before any sweep a poll would run.
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	inflight, pending := len(c.inflight), len(c.pending)
	m.mu.Unlock()
	if inflight != 0 || pending != 1 {
		t.Fatalf("after re-register: inflight=%d pending=%d, want the stale lease released", inflight, pending)
	}
	// The shard must be grantable right now, despite the hour-long TTL.
	var poll2 PollResponse
	if err := postJSON(client, srv.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg2.WorkerID, Epoch: reg2.Epoch,
	}, &poll2); err != nil {
		t.Fatal(err)
	}
	if len(poll2.Leases) != 1 || poll2.Leases[0].Shard != poll.Leases[0].Shard {
		t.Fatalf("re-registered worker polls %+v, want the eagerly released shard %d",
			poll2.Leases, poll.Leases[0].Shard)
	}
	if poll2.Leases[0].ID == poll.Leases[0].ID {
		t.Error("released shard re-granted under the same lease ID")
	}
}

// TestMultiTenancy: one manager hosts named campaigns with per-campaign
// tokens; wrong tokens get HTTP 403, unknown campaigns HTTP 404, and each
// campaign's corpus is isolated from the others'.
func TestMultiTenancy(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	m, srv := startManager(t, cfg)
	if err := m.AddCampaign("alpha", CampaignConfig{
		Campaign: testCampaign(), TotalSteps: 10, Seed: 7, Token: "secret",
	}); err != nil {
		t.Fatal(err)
	}
	client := srv.Client()

	err := postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Campaign: "alpha",
	}, nil)
	if errStatus(err) != 403 {
		t.Errorf("tokenless register on tokened campaign: %v, want HTTP 403", err)
	}
	err = postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Campaign: "nosuch",
	}, nil)
	if errStatus(err) != 404 {
		t.Errorf("unknown campaign register: %v, want HTTP 404", err)
	}

	var regA RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Campaign: "alpha", Token: "secret", Name: "a",
	}, &regA); err != nil {
		t.Fatalf("tokened register: %v", err)
	}
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	var payload strings.Builder
	if err := core.EncodePrograms(&payload, []*syzlang.Program{prog}); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(client, srv.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: regA.WorkerID, Campaign: "alpha", Token: "secret",
		Epoch: regA.Epoch, Keys: []string{progHash(prog)}, Programs: payload.String(),
	}, nil); err != nil {
		t.Fatal(err)
	}

	// Isolation: the program lives in alpha, not in the default campaign.
	if m.CorpusLen() != 0 {
		t.Errorf("default campaign corpus = %d, want 0 (isolation)", m.CorpusLen())
	}
	m.mu.Lock()
	alphaCorpus := len(m.camps["alpha"].corpusOrder)
	m.mu.Unlock()
	if alphaCorpus != 1 {
		t.Errorf("alpha corpus = %d, want 1", alphaCorpus)
	}
	if got := m.do.campaigns.Value(); got != 2 {
		t.Errorf("ozz_dist_campaigns = %v, want 2", got)
	}
	if names := m.Campaigns(); len(names) != 2 || names[0] != DefaultCampaign || names[1] != "alpha" {
		t.Errorf("Campaigns() = %v", names)
	}
	if m.AddCampaign("bad/name", CampaignConfig{}) == nil {
		t.Error("AddCampaign accepted a filesystem-unsafe name")
	}
}

// TestMultiTenancyEndToEnd runs real workers against two campaigns on one
// manager concurrently; each campaign independently matches its own
// standalone result.
func TestMultiTenancyEndToEnd(t *testing.T) {
	cfg := fastManagerConfig(30, 10)
	alphaCfg := CampaignConfig{Campaign: testCampaign(), TotalSteps: 30, ShardSteps: 10, Seed: 99, Token: "s3cr3t"}
	m, srv := startManager(t, cfg)
	if err := m.AddCampaign("alpha", alphaCfg); err != nil {
		t.Fatal(err)
	}
	wantDefault, _ := RunShardsLocal(cfg, 2)
	wantAlpha, _ := RunShardsLocal(ManagerConfig{
		Campaign: alphaCfg.Campaign, TotalSteps: alphaCfg.TotalSteps,
		ShardSteps: alphaCfg.ShardSteps, Seed: alphaCfg.Seed,
	}, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errc := make(chan error, 2)
	go func() { errc <- testWorker(srv, "wd").Run(ctx) }()
	go func() {
		w := NewWorker(WorkerConfig{
			ManagerURL: srv.URL, Name: "wa", Campaign: "alpha", Token: "s3cr3t",
			PoolWorkers: 2, HTTPClient: srv.Client(), MaxBackoff: 200 * time.Millisecond,
		})
		errc <- w.Run(ctx)
	}()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !m.AllDone() {
		t.Fatal("both workers exited but not every campaign is done")
	}
	if got := strings.Join(m.ReportTitles(), "|"); got != strings.Join(wantDefault.Titles(), "|") {
		t.Errorf("default campaign titles %q != standalone %q", got, wantDefault.Titles())
	}
	m.mu.Lock()
	alphaTitles := m.camps["alpha"].reports.Titles()
	m.mu.Unlock()
	if got := strings.Join(alphaTitles, "|"); got != strings.Join(wantAlpha.Titles(), "|") {
		t.Errorf("alpha campaign titles %q != standalone %q", got, wantAlpha.Titles())
	}
}

// TestExportImportRoundTrip: a campaign exported from one manager and
// imported into another carries its corpus, reports, and completed-shard
// frontier; the import bumps the epoch and honors the new token.
func TestExportImportRoundTrip(t *testing.T) {
	cfg := fastManagerConfig(20, 10)
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	m1.mu.Lock()
	c1 := m1.camps[DefaultCampaign]
	c1.admitProgramLocked(prog, true)
	c1.admitReportLocked(&report.Report{Title: "exported finding"}, true)
	c1.shards[0].completed = true
	c1.completed++
	m1.mu.Unlock()

	var buf bytes.Buffer
	if err := m1.ExportCampaign(DefaultCampaign, &buf); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(fastManagerConfig(20, 10))
	if err != nil {
		t.Fatal(err)
	}
	name, err := m2.ImportCampaign(bytes.NewReader(buf.Bytes()), "newtok")
	if err != nil {
		t.Fatal(err)
	}
	if name != DefaultCampaign {
		t.Fatalf("imported campaign name %q", name)
	}
	if m2.CorpusLen() != 1 || m2.CorpusKeyHashes()[0] != progHash(prog) {
		t.Errorf("imported corpus = %v", m2.CorpusKeyHashes())
	}
	if titles := m2.ReportTitles(); len(titles) != 1 || titles[0] != "exported finding" {
		t.Errorf("imported reports = %v", titles)
	}
	if m2.ShardsCompleted() != 1 {
		t.Errorf("imported completed shards = %d, want 1", m2.ShardsCompleted())
	}
	if got := m2.Epoch(); got != 2 {
		t.Errorf("imported epoch = %d, want snapshot epoch + 1 = 2", got)
	}
	// The import's token now guards the campaign.
	srv := httptestServer(t, m2)
	err = postJSON(srv.Client(), srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion}, nil)
	if errStatus(err) != 403 {
		t.Errorf("tokenless register after import: %v, want HTTP 403", err)
	}
	if err := postJSON(srv.Client(), srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Token: "newtok",
	}, nil); err != nil {
		t.Errorf("tokened register after import: %v", err)
	}
}

// TestImportReplacesStaleDiskState: importing into a durable campaign
// whose WAL is detached (a disk-full degrade) must not restore the stale
// on-disk snapshot/WAL over the imported state — the import wins, both
// in memory and across a restart.
func TestImportReplacesStaleDiskState(t *testing.T) {
	// Source manager accumulates the state to migrate.
	src, err := NewManager(fastManagerConfig(20, 10))
	if err != nil {
		t.Fatal(err)
	}
	imported := testProgram(t, "r0 = wq_create()\nwq_post_notification(r0, 0x4)\n")
	src.mu.Lock()
	cs := src.camps[DefaultCampaign]
	cs.admitProgramLocked(imported, true)
	cs.admitReportLocked(&report.Report{Title: "imported finding"}, true)
	cs.shards[0].completed = true
	cs.completed++
	src.mu.Unlock()
	var buf bytes.Buffer
	if err := src.ExportCampaign(DefaultCampaign, &buf); err != nil {
		t.Fatal(err)
	}

	// Destination: durable, with its own (soon stale) journaled state,
	// then degraded to in-memory operation — the wal == nil posture.
	cfg := durableConfig(t, 20, 10)
	m, _ := startManager(t, cfg)
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	c.admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	_ = c.wal.close()
	c.wal = nil
	m.mu.Unlock()

	if _, err := m.ImportCampaign(bytes.NewReader(buf.Bytes()), "tok"); err != nil {
		t.Fatal(err)
	}
	if hashes := m.CorpusKeyHashes(); len(hashes) != 1 || hashes[0] != progHash(imported) {
		t.Errorf("corpus after import = %v, want only the imported program", hashes)
	}
	if m.ShardsCompleted() != 1 {
		t.Errorf("completed shards after import = %d, want 1", m.ShardsCompleted())
	}

	// A restart over the same state dir restores the imported state, not
	// the pre-import snapshot or the orphaned WAL records.
	m2, _ := startManager(t, cfg)
	if hashes := m2.CorpusKeyHashes(); len(hashes) != 1 || hashes[0] != progHash(imported) {
		t.Errorf("restarted corpus = %v, want only the imported program", hashes)
	}
	if m2.ShardsCompleted() != 1 {
		t.Errorf("restarted completed shards = %d, want 1", m2.ShardsCompleted())
	}
	if titles := m2.ReportTitles(); len(titles) != 1 || titles[0] != "imported finding" {
		t.Errorf("restarted reports = %v, want only the imported finding", titles)
	}
}

// TestExportEventCountsCorpus: the dist.export event's corpus field is
// the exported campaign's program count, not its completed-shard count.
func TestExportEventCountsCorpus(t *testing.T) {
	var log bytes.Buffer
	cfg := fastManagerConfig(20, 10)
	cfg.Events = obs.NewEventLog(&log, obs.LevelInfo)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.camps[DefaultCampaign].admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	m.mu.Unlock()
	if err := m.ExportCampaign(DefaultCampaign, io.Discard); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&log)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("no dist.export event in the log: %v", err)
		}
		if ev.Kind != "dist.export" {
			continue
		}
		if got := ev.Fields["corpus"]; got != float64(1) {
			t.Errorf("dist.export corpus = %v, want 1 (one program, no completed shards)", got)
		}
		return
	}
}

// TestUnknownSpecRejected: a campaign spec naming a memory model (or a
// module) this build does not know is refused wherever it enters the
// manager — the default campaign's configuration, AddCampaign, a
// snapshot restored from the state directory, and ImportCampaign —
// instead of silently running LKMM under the unknown model's name.
func TestUnknownSpecRejected(t *testing.T) {
	bad := fastManagerConfig(10, 10)
	bad.Campaign.Model = "nosuch"
	if _, err := NewManager(bad); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("NewManager with model %q: err = %v, want rejection", bad.Campaign.Model, err)
	}

	m, err := NewManager(fastManagerConfig(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []CampaignSpec{
		{Modules: []string{"watchqueue"}, Model: "nosuch"},
		{Modules: []string{"nosuch"}},
	} {
		if err := m.AddCampaign("extra", CampaignConfig{Campaign: spec, TotalSteps: 10}); err == nil {
			t.Errorf("AddCampaign with spec %+v succeeded, want rejection", spec)
		}
	}
	if err := m.AddCampaign("tso", CampaignConfig{
		Campaign: CampaignSpec{Modules: []string{"watchqueue"}, Model: "tso"}, TotalSteps: 10,
	}); err != nil {
		t.Errorf("AddCampaign with a known model: %v", err)
	}

	// A snapshot on disk that names an unknown model stops the restart.
	cfg := durableConfig(t, 10, 10)
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1.mu.Lock()
	snap := m1.camps[DefaultCampaign].buildSnapshotLocked()
	m1.mu.Unlock()
	snap.Spec.Model = "nosuch"
	if err := writeSnapshotFile(snapshotPath(campaignDir(cfg.StateDir, DefaultCampaign)), snap); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(cfg); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("restart over a snapshot with an unknown model: err = %v, want rejection", err)
	}

	// So does an imported one.
	var buf bytes.Buffer
	if err := writeSnapshotTo(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ImportCampaign(&buf, ""); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("ImportCampaign with an unknown model: err = %v, want rejection", err)
	}
}

// TestPlanBoundRefused: a plan of more than maxShards shards is refused
// wherever its step counts enter — NewManager and AddCampaign configs, a
// snapshot in the state directory, an imported snapshot — before the
// plan is built. 10^12 one-step shards would otherwise allocate 10^12
// shard entries; the allocation bound below shows nothing plan-sized was
// built before the refusal.
func TestPlanBoundRefused(t *testing.T) {
	const huge = 1_000_000_000_000
	refused := func(t *testing.T, f func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "shards") {
			t.Fatalf("err = %v, want a refused plan", err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("allocated %d bytes before refusing: the plan was built", n)
		}
	}
	bigSnapshot := func() []byte {
		return []byte(fmt.Sprintf(`{"format":%d,"name":"big","total_steps":%d,"shard_steps":1}`, SnapshotFormat, huge))
	}

	t.Run("snapshot", func(t *testing.T) {
		refused(t, func() error {
			_, err := decodeSnapshot(bytes.NewReader(bigSnapshot()))
			return err
		})
	})
	t.Run("import", func(t *testing.T) {
		m, err := NewManager(fastManagerConfig(10, 10))
		if err != nil {
			t.Fatal(err)
		}
		refused(t, func() error {
			_, err := m.ImportCampaign(bytes.NewReader(bigSnapshot()), "")
			return err
		})
		if got := m.Campaigns(); len(got) != 1 {
			t.Errorf("campaigns after a refused import = %v, want only the default", got)
		}
	})
	t.Run("config", func(t *testing.T) {
		refused(t, func() error {
			_, err := NewManager(fastManagerConfig(huge, 1))
			return err
		})
		m, err := NewManager(fastManagerConfig(10, 10))
		if err != nil {
			t.Fatal(err)
		}
		refused(t, func() error {
			return m.AddCampaign("big", CampaignConfig{Campaign: testCampaign(), TotalSteps: huge, ShardSteps: 1})
		})
		// The default shard size counts too.
		refused(t, func() error {
			return m.AddCampaign("big", CampaignConfig{Campaign: testCampaign(), TotalSteps: 64*maxShards + 1})
		})
		if err := m.AddCampaign("edge", CampaignConfig{Campaign: testCampaign(), TotalSteps: maxShards, ShardSteps: 1}); err != nil {
			t.Errorf("a plan of exactly maxShards shards: %v", err)
		}
	})
	t.Run("restart", func(t *testing.T) {
		cfg := durableConfig(t, 10, 10)
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		snap := m.camps[DefaultCampaign].buildSnapshotLocked()
		m.mu.Unlock()
		snap.TotalSteps, snap.ShardSteps = huge, 1
		if err := writeSnapshotFile(snapshotPath(campaignDir(cfg.StateDir, DefaultCampaign)), snap); err != nil {
			t.Fatal(err)
		}
		refused(t, func() error {
			_, err := NewManager(cfg)
			return err
		})
	})
}

// TestWorkerRejectsUnknownModel: a worker handed a campaign whose memory
// model it cannot resolve stops with a fatal error at registration, like
// a rejected token, instead of running shards under LKMM.
func TestWorkerRejectsUnknownModel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathRegister {
			writeError(w, http.StatusServiceUnavailable, "only /register is served")
			return
		}
		writeJSON(w, http.StatusOK, RegisterResponse{
			V: ProtocolVersion, WorkerID: 1, Epoch: 1, HeartbeatMS: 50,
			Campaign: CampaignSpec{Modules: []string{"watchqueue"}, Model: "nosuch"},
		})
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := testWorker(srv, "w").Run(ctx)
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("worker Run = %v, want a fatal unknown-model error before the deadline", err)
	}
}

// walState is the durable state a WAL replay rebuilds, in comparable
// form.
type walState struct {
	Epoch      uint64
	NextWorker int
	Workers    []SnapshotWorker
	Completed  []int
	Corpus     []string
	Reports    []string
}

// walStateOf captures c's replayable state.
func walStateOf(c *campaign) walState {
	snap := c.buildSnapshotLocked()
	st := walState{
		Epoch: c.epoch, NextWorker: c.nextWorker, Workers: snap.Workers,
		Completed: snap.Completed, Corpus: append([]string(nil), c.corpusOrder...),
	}
	for _, r := range snap.Reports {
		st.Reports = append(st.Reports, r.Title)
	}
	return st
}

// TestWALTruncatedAtEveryByte extends the torn-tail tests from handpicked
// cuts to every cut: the WAL of a short durable campaign (a worker,
// programs, a report, shard completions) is truncated at each byte
// offset and replayed into a fresh campaign. Every replay must rebuild
// exactly the state after the last complete record, truncate the file to
// that record's end, and leave a log that replays again with no torn
// bytes.
func TestWALTruncatedAtEveryByte(t *testing.T) {
	cfg := durableConfig(t, 30, 10)
	cfg.SnapshotEvery = 1 << 20 // keep every record in the log
	// A restart journals an epoch record; the first open's initial
	// snapshot would compact it away.
	m0, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	id, _ := c.registerLocked("w", 0)
	c.admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	granted, _ := c.grantLocked(c.workers[id])
	c.admitReportLocked(&report.Report{Title: "KCSAN: data-race in truncation_test"}, true)
	c.admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_post_notification(r0, 0x4)\n"), true)
	for _, l := range granted[:2] {
		c.completeLocked(c.workers[id], l.ID)
	}
	live := walStateOf(c)
	m.mu.Unlock()
	data, err := os.ReadFile(walPath(campaignDir(cfg.StateDir, DefaultCampaign)))
	if err != nil {
		t.Fatal(err)
	}

	// The records and their end offsets, and the state after each prefix.
	type record struct {
		t string
		d json.RawMessage
	}
	var recs []record
	var ends []int
	for off := 0; off < len(data); {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			t.Fatal("recorded WAL ends in a partial record")
		}
		var r walRecord
		if err := json.Unmarshal(data[off:off+n], &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record{r.T, r.D})
		off += n + 1
		ends = append(ends, off)
	}
	fresh := func() *campaign { return newCampaign(m, DefaultCampaign, cfg.defaultCampaignConfig()) }
	want := make([]walState, len(recs)+1)
	for n := range want {
		c := fresh()
		for _, r := range recs[:n] {
			c.applyWALLocked(r.t, r.d)
		}
		want[n] = walStateOf(c)
	}
	if !reflect.DeepEqual(want[len(recs)], live) {
		t.Fatalf("full replay %+v != live state %+v", want[len(recs)], live)
	}
	for _, kind := range []string{walEpoch, walWorker, walProgram, walReport, walComplete} {
		found := false
		for _, r := range recs {
			found = found || r.t == kind
		}
		if !found {
			t.Fatalf("recorded WAL has no %q record", kind)
		}
	}

	path := filepath.Join(t.TempDir(), "wal.log")
	for cut := 0; cut <= len(data); cut++ {
		n := 0
		for n < len(ends) && ends[n] <= cut {
			n++
		}
		good := 0
		if n > 0 {
			good = ends[n-1]
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := fresh()
		replayed, torn, err := replayWAL(path, c.applyWALLocked)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if replayed != n || torn != int64(cut-good) {
			t.Fatalf("cut %d: replayed %d records, torn %d bytes; want %d and %d", cut, replayed, torn, n, cut-good)
		}
		if got := walStateOf(c); !reflect.DeepEqual(got, want[n]) {
			t.Fatalf("cut %d: replayed state %+v, want the state after %d records %+v", cut, got, n, want[n])
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data[:good]) {
			t.Fatalf("cut %d: file not truncated to the %d-byte complete prefix (%d bytes left)", cut, good, len(after))
		}
		if again, torn, err := replayWAL(path, func(string, json.RawMessage) {}); err != nil || again != n || torn != 0 {
			t.Fatalf("cut %d: second replay: %d records, %d torn bytes, err %v; want %d, 0, nil", cut, again, torn, err, n)
		}
	}
}

// TestDeregisterReleasesLeases: a deregistering sync releases the
// worker's leases at once, not at the next sweep.
func TestDeregisterReleasesLeases(t *testing.T) {
	cfg := fastManagerConfig(20, 10) // two shards, one batch
	cfg.LeaseTTL = time.Hour
	m, srv := startManager(t, cfg)
	client := srv.Client()
	var reg RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "w"}, &reg); err != nil {
		t.Fatal(err)
	}
	var poll PollResponse
	if err := postJSON(client, srv.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, &poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Leases) != 2 {
		t.Fatalf("granted %d leases, want the 2-shard batch", len(poll.Leases))
	}
	if err := postJSON(client, srv.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch, Deregister: true,
	}, nil); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	inflight, pending := len(c.inflight), len(c.pending)
	m.mu.Unlock()
	if inflight != 0 || pending != 2 {
		t.Errorf("after deregister: inflight=%d pending=%d, want both leases released", inflight, pending)
	}
	if got := m.do.leaseReassigns.Value(); got != 2 {
		t.Errorf("lease_reassignments_total = %d, want 2", got)
	}
}

// TestCompletedShardNotRegranted: when several leases on one shard expire
// together the shard is queued once per lease; completing it must purge
// every copy, so the finished shard is never granted again.
func TestCompletedShardNotRegranted(t *testing.T) {
	cfg := fastManagerConfig(10, 10) // one shard
	cfg.HeartbeatEvery = time.Hour   // isolate lease expiry from worker death
	cfg.StealDuplicates = 2
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	var ids []int
	for _, name := range []string{"holder", "thief1", "thief2"} {
		id, _ := c.registerLocked(name, 0)
		if g, _ := c.grantLocked(c.workers[id]); len(g) != 1 {
			m.mu.Unlock()
			t.Fatalf("%s granted %d leases, want 1", name, len(g))
		}
		ids = append(ids, id)
	}
	m.mu.Unlock()

	now = now.Add(cfg.LeaseTTL + time.Nanosecond)
	m.sweep()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(c.pending) != 3 {
		t.Fatalf("after all three leases expired: pending=%v, want the shard queued 3 times", c.pending)
	}
	g, _ := c.grantLocked(c.workers[ids[0]])
	if len(g) != 1 {
		t.Fatalf("re-grant: %d leases, want 1", len(g))
	}
	c.completeLocked(c.workers[ids[0]], g[0].ID)
	if !c.doneLocked() || len(c.pending) != 0 {
		t.Fatalf("after completion: done=%v pending=%v, want done with nothing queued", c.doneLocked(), c.pending)
	}
	if again, _ := c.grantLocked(c.workers[ids[1]]); len(again) != 0 {
		t.Errorf("completed shard granted again: %+v", again)
	}
}
