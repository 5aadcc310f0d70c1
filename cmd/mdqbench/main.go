// Command mdqbench regenerates every empirical table and figure of
// the paper — Table 1, Examples 4.1 and 5.1, Figure 8, both panels
// of Figure 11, the §6 multithreading test and the bioinformatics
// generalization — plus the repository's ablations, printing each
// report with the paper's values alongside ours.
//
// Usage:
//
//	mdqbench [-only fig11]   # substring filter on report titles
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"mdq/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run only reports whose title contains this substring (case-insensitive)")
	flag.Parse()

	start := time.Now()
	reports, err := experiments.All(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	printed := 0
	for _, rep := range reports {
		if *only != "" && !strings.Contains(strings.ToLower(rep.Title), strings.ToLower(*only)) {
			continue
		}
		fmt.Println(rep)
		printed++
	}
	fmt.Printf("%d reports in %s\n", printed, time.Since(start).Round(time.Millisecond))
}
