package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// metricDef is one catalogued metric; BENCHMARK.json declares the same
// names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every --trace 0 run reports. Each is defined
// on all three workloads, so every run can report every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tests_per_s", "tests/s"},
	{"mtis_per_s", "MTIs/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every --trace 1 run reports, grouped by the
// module they describe. Rows of a layer the workload never enters read 0.
var perLayer = []metricDef{
	// Workload outcomes that are not defined on every workload.
	{"ttf_p50_ms", "ms"},
	{"ttf_p90_ms", "ms"},
	{"ttfix_p50_ms", "ms"},
	{"ttfix_p90_ms", "ms"},
	{"found_ratio", "ratio"},
	{"fixed_ratio", "ratio"},
	{"mtis_to_find", "MTIs"},
	{"false_ooo", "titles"},
	{"shards_per_s", "shards/s"},
	{"rpc_error_ratio", "ratio"},

	// core: campaign loop.
	{"core.generate_us", "us"},
	{"core.merge_us", "us"},
	{"core.corpus_programs", "count"},
	{"core.coverage_edges", "count"},
	{"core.self_share", "ratio"},

	// engine: STI profiling, MTI execution, triage and probes.
	{"engine.sti_us", "us"},
	{"engine.sti_cache_hit_ratio", "ratio"},
	{"engine.mti_us", "us"},
	{"engine.kernel_recycle_ratio", "ratio"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.vacuous_ratio", "ratio"},
	{"engine.triage_us", "us"},
	{"engine.probe_us", "us"},
	{"engine.self_share", "ratio"},

	// hints: hypothetical-barrier hint calculation.
	{"hints.calc_us", "us"},
	{"hints.per_pair", "hints"},
	{"hints.self_share", "ratio"},

	// oemu, sched, kmem, memmodel: reached only from inside the engine;
	// micro drivers call their public functions directly.
	{"oemu.step_ns", "ns"},
	{"oemu.commit_tracked_ns", "ns"},
	{"oemu.delay_flush_ns", "ns"},
	{"oemu.allocs", "allocs/op"},
	{"oemu.delayed_stores_per_mti", "stores"},
	{"oemu.versioned_loads_per_mti", "loads"},
	{"sched.yield_ns", "ns"},
	{"sched.switch_ns", "ns"},
	{"sched.combinator_ns", "ns"},
	{"sched.allocs", "allocs/op"},
	{"sched.preemptions_per_mti", "preemptions"},
	{"kmem.check_ns", "ns"},
	{"kmem.allocs", "allocs/op"},
	{"memmodel.dispatch_ns", "ns"},
	{"memmodel.allocs", "allocs/op"},

	// repair: fence-repair search.
	{"repair.search_p50_ms", "ms"},
	{"repair.search_p90_ms", "ms"},
	{"repair.candidates_per_search", "candidates"},
	{"repair.validated_ratio", "ratio"},
	{"repair.self_share", "ratio"},

	// dist: manager/worker fabric.
	{"dist.poll_p50_ms", "ms"},
	{"dist.poll_p99_ms", "ms"},
	{"dist.sync_p50_ms", "ms"},
	{"dist.sync_p99_ms", "ms"},
	{"dist.report_p50_ms", "ms"},
	{"dist.report_p99_ms", "ms"},
	{"dist.handler_p50_ms", "ms"},
	{"dist.handler_p99_ms", "ms"},
	{"dist.lease_p50_ms", "ms"},
	{"dist.lease_p99_ms", "ms"},
	{"dist.wal_records_per_shard", "records"},
	{"dist.wal_bytes_per_shard", "bytes"},
	{"dist.sync_bytes_per_shard", "bytes"},
	{"dist.wal_overhead_ratio", "ratio"},
	{"dist.self_share", "ratio"},

	// The traced run itself.
	{"trace.residue_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// unitOf maps every catalogued metric name to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, dup := m[d.name]; dup {
				panic("ozzbench: duplicate metric " + d.name)
			}
			m[d.name] = d.unit
		}
	}
	return m
}()

// checkDeclared compares the catalogue with the BENCHMARK.json the run
// starts next to, so the two cannot drift apart. A missing file (a run
// outside a checkout) is not an error.
func checkDeclared(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, l := range []struct {
		key  string
		decl []struct{ Name, Unit string }
		cat  []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(l.decl) != len(l.cat) {
			return fmt.Errorf("%s declares %d %s metrics, the catalogue has %d", path, len(l.decl), l.key, len(l.cat))
		}
		for i, d := range l.decl {
			if d.Name != l.cat[i].name || d.Unit != l.cat[i].unit {
				return fmt.Errorf("%s %s[%d] is %s (%s), the catalogue has %s (%s)",
					path, l.key, i, d.Name, d.Unit, l.cat[i].name, l.cat[i].unit)
			}
		}
	}
	return nil
}
