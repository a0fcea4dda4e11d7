package dist

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ozz/internal/modules"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// protoMessages returns one zero instance of every wire message; the
// fuzzer decodes arbitrary bytes into each shape.
func protoMessages() []any {
	return []any{
		&RegisterRequest{}, &RegisterResponse{},
		&PollRequest{}, &PollResponse{},
		&SyncRequest{}, &SyncResponse{},
		&ReportRequest{}, &ReportResponse{},
		&HeartbeatRequest{}, &HeartbeatResponse{},
		&ErrorResponse{},
	}
}

// FuzzProtocol feeds arbitrary bytes to every protocol message decoder —
// exactly what a manager does with an untrusted request body. Invariants:
// decoding never panics, and any body that decodes reaches a canonical
// wire form in one encode step (marshal∘decode is idempotent), so a
// manager relaying a message never corrupts it. The comparison is on the
// marshaled bytes, not DeepEqual: omitempty canonicalizes an empty slice
// and an absent field to the same wire form, which is the equality that
// matters on the wire.
func FuzzProtocol(f *testing.F) {
	for _, m := range []any{
		RegisterRequest{V: ProtocolVersion, Name: "w1"},
		RegisterRequest{V: ProtocolVersion, Name: "w2", Campaign: "alpha", Token: "t0k", PrevWorkerID: 3, PrevEpoch: 2},
		RegisterResponse{V: ProtocolVersion, WorkerID: 2, Epoch: 3, HeartbeatMS: 500},
		PollRequest{V: ProtocolVersion, WorkerID: 2, Campaign: "alpha", Token: "t0k", Epoch: 3},
		PollResponse{V: ProtocolVersion,
			Lease:  &Lease{ID: 1<<32 | 1, Shard: 0, Seed: 9, Steps: 10, TTLMS: 3000},
			Leases: []*Lease{{ID: 1<<32 | 1, Shard: 0, Seed: 9, Steps: 10, TTLMS: 3000}, {ID: 1<<32 | 2, Shard: 1, Seed: 10, Steps: 10, TTLMS: 3000}}},
		RegisterResponse{V: ProtocolVersion, WorkerID: 1, HeartbeatMS: 500,
			Campaign: CampaignSpec{Modules: []string{"wq"}, Bugs: []string{"wq_missing_barrier"}, ProgLen: 3, UseSeeds: true}},
		PollRequest{V: ProtocolVersion, WorkerID: 1, Completed: []uint64{1, 2}},
		PollResponse{V: ProtocolVersion, Lease: &Lease{ID: 7, Shard: 3, Seed: -1, Steps: 40, TTLMS: 3000}},
		PollResponse{V: ProtocolVersion, Done: true},
		SyncRequest{V: ProtocolVersion, WorkerID: 1, Keys: []string{"abc123"}, Programs: "r0 = wq_create()\n"},
		SyncResponse{V: ProtocolVersion, Want: []string{"def456"}},
		ReportRequest{V: ProtocolVersion, WorkerID: 1, Reports: []*report.Report{{
			Title: "KCSAN: data-race in wq_post", Oracle: "kcsan", OOO: true, Type: "S-S",
			ReorderedSites: []string{"42"}, Pair: [2]string{"wq_post_notification", "wq_pipe_read"},
		}}},
		ReportResponse{V: ProtocolVersion, Added: 1},
		HeartbeatRequest{V: ProtocolVersion, WorkerID: 1, Leases: []uint64{7}},
		HeartbeatResponse{V: ProtocolVersion, OK: true},
		ErrorResponse{Error: "protocol version mismatch"},
	} {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"v":9999,"lease":{"id":18446744073709551615}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, zero := range protoMessages() {
			msg := reflect.New(reflect.TypeOf(zero).Elem()).Interface()
			if json.Unmarshal(body, msg) != nil {
				continue
			}
			out, err := json.Marshal(msg)
			if err != nil {
				t.Fatalf("%T decoded %q but re-marshal failed: %v", msg, body, err)
			}
			again := reflect.New(reflect.TypeOf(zero).Elem()).Interface()
			if err := json.Unmarshal(out, again); err != nil {
				t.Fatalf("%T re-marshal %q does not decode: %v", msg, out, err)
			}
			out2, err := json.Marshal(again)
			if err != nil {
				t.Fatalf("%T second marshal failed: %v", msg, err)
			}
			if string(out) != string(out2) {
				t.Fatalf("%T wire form not canonical after one encode:\nbody: %q\nfirst: %s\nsecond: %s",
					msg, body, out, out2)
			}
		}
	})
}

// fuzzCampaign builds a fresh in-memory campaign over the watchqueue
// test spec, the target of replayed records and decoded snapshots.
func fuzzCampaign(f *testing.F) func() *campaign {
	m, err := NewManager(fastManagerConfig(40, 10))
	if err != nil {
		f.Fatal(err)
	}
	return func() *campaign { return newCampaign(m, DefaultCampaign, m.cfg.defaultCampaignConfig()) }
}

// walLine frames one WAL record the way wal.append does.
func walLine(f *testing.F, t string, payload any) []byte {
	d, err := json.Marshal(payload)
	if err != nil {
		f.Fatal(err)
	}
	line, err := json.Marshal(walRecord{T: t, CRC: crc32.ChecksumIEEE(d), D: d})
	if err != nil {
		f.Fatal(err)
	}
	return append(line, '\n')
}

// FuzzWALReplay replays arbitrary bytes as a campaign's write-ahead log —
// what a manager restarting over a damaged state directory does.
// Invariants: replay and record application never panic; the file is
// truncated to exactly the prefix of records that were applied; and a
// second replay of the truncated file sees no torn bytes and the same
// records in the same order.
func FuzzWALReplay(f *testing.F) {
	valid := bytes.Join([][]byte{
		walLine(f, walEpoch, walEpochD{Epoch: 2}),
		walLine(f, walWorker, walWorkerD{ID: 1, Name: "w"}),
		walLine(f, walProgram, walProgramD{Src: "r0 = wq_create()\nwq_pipe_read(r0)\n"}),
		walLine(f, walReport, report.Report{Title: "KCSAN: data-race in wq_post"}),
		walLine(f, walComplete, walCompleteD{Shard: 1}),
	}, nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), `{"t":"program","crc":1,"d":{}}`+"\n"...))
	f.Add(walLine(f, walComplete, walCompleteD{Shard: -1}))
	f.Add(walLine(f, walWorker, walWorkerD{ID: -3}))
	f.Add(walLine(f, "unknown", 7))
	f.Add([]byte("\n\n"))
	f.Add([]byte{})
	fresh := fuzzCampaign(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		type record struct {
			t string
			d string
		}
		var first, second []record
		c := fresh()
		n, torn, err := replayWAL(path, func(typ string, d json.RawMessage) {
			first = append(first, record{typ, string(d)})
			c.applyWALLocked(typ, d)
		})
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		applied := int64(len(after))
		if n != len(first) || applied+torn != int64(len(data)) || !bytes.Equal(after, data[:applied]) {
			t.Fatalf("replay applied %d records, torn %d: file left with %d of %d bytes, not the applied prefix",
				n, torn, len(after), len(data))
		}
		if applied > 0 && after[applied-1] != '\n' {
			t.Fatalf("truncated file does not end on a record boundary: %q", after)
		}
		n2, torn2, err := replayWAL(path, func(typ string, d json.RawMessage) {
			second = append(second, record{typ, string(d)})
		})
		if err != nil || torn2 != 0 || n2 != n || !reflect.DeepEqual(first, second) {
			t.Fatalf("second replay: %d records, %d torn bytes, err %v; want the first replay's %d records and no torn bytes",
				n2, torn2, err, n)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the one snapshot decoder
// that both the state directory and campaign import go through.
// Invariants: decoding never panics, and restoring any snapshot it
// accepts into a campaign never panics. The decoder does not bound the
// shard plan — its size is the operator's configuration, as with -steps —
// so restores are only attempted for plans of at most maxFuzzShards
// shards, keeping each input fast.
func FuzzSnapshotDecode(f *testing.F) {
	const maxFuzzShards = 1 << 12
	fresh := fuzzCampaign(f)
	c := fresh()
	c.registerLocked("w", 0)
	c.admitProgramLocked(mustParse(f, "r0 = wq_create()\nwq_pipe_read(r0)\n"), false)
	c.admitReportLocked(&report.Report{Title: "KCSAN: data-race in wq_post"}, false)
	c.shards[1].completed = true
	c.completed++
	var buf bytes.Buffer
	if err := writeSnapshotTo(&buf, c.buildSnapshotLocked()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte(`{"format":1}`))
	f.Add([]byte(`{"format":1,"total_steps":-5,"completed":[-1,99999],"workers":[{"id":-2}],"reports":[null,{}]}`))
	f.Add([]byte(`{"format":1,"spec":{"modules":["nosuch"]}}`))
	f.Add([]byte(`{"format":1,"spec":{"model":"tso"},"corpus":"garbage(\n"}`))
	f.Add([]byte(`{"format":2}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		steps := snap.ShardSteps
		if steps <= 0 {
			steps = 64
		}
		if snap.TotalSteps > 0 && snap.TotalSteps/steps >= maxFuzzShards {
			return
		}
		fresh().restoreSnapshotLocked(snap)
	})
}

// mustParse parses one watchqueue program for fuzz seeds.
func mustParse(f *testing.F, src string) *syzlang.Program {
	p, err := modules.Target("watchqueue").Parse(src)
	if err != nil {
		f.Fatal(err)
	}
	return p
}
