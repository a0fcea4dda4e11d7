package bench

import (
	"fmt"
	"strings"

	"ozz/internal/baseline/kcsan"
	"ozz/internal/core"
	"ozz/internal/modules"
)

// KCSANRow is one §7 comparison scenario: what the sampling race detector
// reports vs. what OZZ finds on the same module+bug.
type KCSANRow struct {
	Scenario   string
	Bug        string
	KCSANFinds bool
	OzzFinds   bool
	Comment    string
}

// RunKCSANComparison reproduces the §7 comparison and the two §6.1 case
// studies: KCSAN sees plain races, is silenced by WRITE_ONCE/READ_ONCE
// annotations, and is structurally blind to race-free OOO bugs; OZZ finds
// all three OOO bugs.
func RunKCSANComparison(budget int) []KCSANRow {
	scenario := func(name, mod, sw, seedProg, comment string) KCSANRow {
		// KCSAN side.
		reg, _ := instrumented()
		d := kcsan.NewObs([]string{mod}, modules.Bugs(sw), 1, reg)
		target := modules.Target(mod)
		p, err := target.Parse(seedProg)
		if err != nil {
			panic(err)
		}
		races := d.Hunt(p, 120)

		// OZZ side.
		b, _ := modules.FindBug(sw)
		pool := core.NewPool(campaignConfig(core.Config{
			Modules: []string{mod}, Bugs: modules.Bugs(sw), Seed: 42, UseSeeds: true,
		}), 1)
		want := b.Title
		if want == "" {
			want = b.SoftTitle
		}
		found := pool.RunUntil(want, budget) != nil
		return KCSANRow{
			Scenario:   name,
			Bug:        sw,
			KCSANFinds: len(races) > 0,
			OzzFinds:   found,
			Comment:    comment,
		}
	}
	return []KCSANRow{
		scenario("plain data race", "gsm", "gsm:dlci_config_rmb",
			"r0 = gsm_open()\ngsm_activate(r0, 0x0)\ngsm_dlci_config(r0, 0x0, 0x200)\n",
			"unannotated racing accesses: both tools fire"),
		scenario("annotated race (case study 1)", "tls", "tls:sk_prot_wmb",
			"r0 = tls_socket()\ntls_init(r0)\nsock_setsockopt(r0, 0x1)\n",
			"WRITE_ONCE/READ_ONCE silence KCSAN; the OOO bug remains"),
		scenario("race-free bit lock (case study 2)", "rds", "rds:clear_bit_unlock",
			"r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\nrds_sendmsg(r0, 0x3)\nrds_loop_xmit(r0)\n",
			"no data race exists; only reordering exposes the bug"),
	}
}

// FormatKCSAN renders the §7 comparison.
func FormatKCSAN(rows []KCSANRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %-24s %-7s %-7s %s\n", "Scenario", "Bug", "KCSAN", "OZZ", "")
	for _, r := range rows {
		yn := func(b bool) string {
			if b {
				return "finds"
			}
			return "silent"
		}
		fmt.Fprintf(&sb, "%-34s %-24s %-7s %-7s %s\n", r.Scenario, r.Bug, yn(r.KCSANFinds), yn(r.OzzFinds), r.Comment)
	}
	return sb.String()
}
