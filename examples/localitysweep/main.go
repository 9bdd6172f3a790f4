// Localitysweep: reproduce the Figure 2(f) sweep through the public API —
// worst-case throughput of SORN as traffic locality varies, against the
// 1D (50%) and 2D (25%) oblivious reference lines. Uses the fluid solver
// only, so it runs in milliseconds; see `repro -exp fig2f` (cmd/repro)
// for the packet-level simulation series.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
)

func main() {
	const n, nc = 128, 8
	fmt.Printf("SORN worst-case throughput vs locality (N=%d, Nc=%d)\n\n", n, nc)
	fmt.Println("  x    theory   fluid    bar (1D ORN at 50%, 2D ORN at 25%)")
	for x := 0.0; x <= 1.001; x += 0.1 {
		if x > 1 {
			x = 1
		}
		nw, err := core.NewSORN(n, nc, x)
		if err != nil {
			log.Fatal(err)
		}
		tm, err := nw.LocalityMatrix(x)
		if err != nil {
			log.Fatal(err)
		}
		res, err := nw.Throughput(tm)
		if err != nil {
			log.Fatal(err)
		}
		bar := strings.Repeat("█", int(res.Theta*80))
		fmt.Printf("%5.2f  %.4f  %.4f  %s\n", x, model.SORNThroughput(x), res.Theta, bar)
	}
	fmt.Printf("\nreference:        1D ORN  %s| 0.50\n", strings.Repeat("·", 40))
	fmt.Printf("reference:        2D ORN  %s| 0.25\n", strings.Repeat("·", 20))
	fmt.Println("\nEven with zero locality SORN clears the 2D ORN's 25%, and approaches")
	fmt.Println("the 1D ORN's 50% as locality rises — at a fraction of the cycle time.")
}
