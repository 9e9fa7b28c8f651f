// Command crophe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	crophe-bench [-fast] [-exp table1|table2|table3|table4|fig9|fig10|fig11|ablations|all] [-deadline D]
//
// Each experiment prints its rendered text followed by a
// "[id completed in …]" wall-clock line. With -deadline, the run stops
// launching further experiments once the wall-clock budget is spent.
// Malformed -deadline values print usage and exit 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crophe/internal/bench"
	"crophe/internal/cliutil"
)

// usageExit reports a malformed flag value, prints usage, and exits 2 —
// the conventional "bad command line" status, distinct from runtime
// failures (exit 1).
func usageExit(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "crophe-bench: "+format+"\n", a...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	fast := flag.Bool("fast", false, "reduced coverage for quick runs")
	deadlineSpec := flag.String("deadline", "", "total wall-clock budget; stop launching experiments once exceeded")
	flag.Parse()

	deadline, err := cliutil.ParseDeadline(*deadlineSpec)
	if err != nil {
		usageExit("%v", err)
	}

	ids := bench.Experiments()
	if *exp != "all" {
		ids = []string{*exp}
	}
	begin := time.Now()
	for i, id := range ids {
		if deadline > 0 && time.Since(begin) > deadline {
			fmt.Printf("[deadline %v reached: skipped %v]\n", deadline, ids[i:])
			break
		}
		start := time.Now()
		out, err := bench.Run(id, *fast)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crophe-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
