// Fuzz: a whole-corpus OZZ campaign — every module loaded, every Table 3 /
// Table 4 bug switch active — mirroring the paper's §6.1 evaluation run in
// miniature. Prints the findings in discovery order and a closing summary of
// unique crash titles classified as OOO bugs.
//
//	go run ./examples/fuzz [-steps 400]
package main

import (
	"flag"
	"fmt"
	"sort"

	ozz "ozz"
)

func main() {
	steps := flag.Int("steps", 400, "fuzzer iterations")
	flag.Parse()

	var switches []string
	for _, b := range ozz.AllBugs() {
		if b.Type != "" { // every OOO bug switch on
			switches = append(switches, b.Switch)
		}
	}
	p := ozz.NewPool(ozz.Config{
		Bugs:     ozz.Bugs(switches...),
		Seed:     1,
		UseSeeds: true,
	}, 0) // GOMAXPROCS workers: the findings are the same at any width
	for _, r := range p.Run(*steps) { // in discovery order
		tag := "crash"
		if r.OOO {
			tag = "OOO bug"
		}
		fmt.Printf("%-7s %s\n", tag, r.Title)
	}

	s := p.Stats()
	fmt.Printf("\ncampaign: %d programs, %d hypothetical-barrier tests, %d hints, %d coverage edges\n",
		s.Steps, s.MTIs, s.Hints, p.CoverageEdges())
	var ooo, other []string
	for _, r := range p.Reports.All() {
		if r.OOO {
			ooo = append(ooo, fmt.Sprintf("%s  (%s; %s)", r.Title, r.Type, r.HypBarrier))
		} else {
			other = append(other, r.Title)
		}
	}
	sort.Strings(ooo)
	fmt.Printf("\n%d unique OOO bugs:\n", len(ooo))
	for _, t := range ooo {
		fmt.Println("  " + t)
	}
	if len(other) > 0 {
		fmt.Printf("%d other findings:\n", len(other))
		for _, t := range other {
			fmt.Println("  " + t)
		}
	}
}
