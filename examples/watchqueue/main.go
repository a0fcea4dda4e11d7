// Watchqueue: a guided tour of the paper's Fig. 1 bug — the watch_queue
// post/read barrier pair — in all four barrier configurations. It shows that
// (a) the fully-barriered code survives every hypothetical-barrier test,
// (b) removing EITHER barrier makes OZZ crash the kernel, with the store
// test catching the missing smp_wmb and the load test catching the missing
// smp_rmb, and (c) the report pinpoints the hypothetical barrier.
//
//	go run ./examples/watchqueue
package main

import (
	"fmt"

	"ozz/internal/modules"

	ozz "ozz"
)

func campaign(name string, bugs ozz.BugSet) {
	fmt.Printf("== %s ==\n", name)
	p := ozz.NewPool(ozz.Config{
		Modules:  []string{"watchqueue"},
		Bugs:     bugs,
		Seed:     7,
		UseSeeds: true,
	}, 1)
	p.Run(60)
	ooo := 0
	for _, r := range p.Reports.All() {
		if !r.OOO {
			continue
		}
		ooo++
		fmt.Printf("  OOO bug: %s\n", r.Title)
		fmt.Printf("    type: %s, missing barrier: %s\n", r.Type, r.HypBarrier)
	}
	if ooo == 0 {
		fmt.Printf("  no OOO bug found (%d hypothetical-barrier tests run)\n", p.Stats().MTIs)
	}
	fmt.Println()
}

func main() {
	fmt.Println("The Fig. 1 protocol: post_one_notification() initializes a ring entry")
	fmt.Println("(buf->len, buf->ops) and publishes it by advancing head; pipe_read()")
	fmt.Println("checks head > tail and calls buf->ops->confirm(). Correctness needs")
	fmt.Println("BOTH the poster's smp_wmb() and the reader's smp_rmb().")
	fmt.Println()

	campaign("both barriers present (fixed kernel)", nil)
	campaign("poster's smp_wmb missing (store-store reordering)",
		ozz.Bugs("watchqueue:pipe_wmb"))
	campaign("reader's smp_rmb missing (load-load reordering)",
		ozz.Bugs("watchqueue:pipe_rmb"))
	campaign("both missing", ozz.Bugs("watchqueue:pipe_wmb", "watchqueue:pipe_rmb"))

	fmt.Println("bug metadata in the corpus registry:")
	for _, b := range ozz.AllBugs() {
		if b.Module == "watchqueue" {
			fmt.Printf("  %-28s [%s] table %d: %s\n", b.Switch, b.Type, b.Table, b.Title)
		}
	}
	_ = modules.SiteName // the registry also resolves instruction sites for reports
}
