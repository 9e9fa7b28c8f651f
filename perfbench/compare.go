package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// timingUnits are the units whose values depend on the host; they are
// compared only between records with the same host fingerprint.
var timingUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true, "frac": true}

// compareMain compares two result records (written under
// .bench_build/perfbench/results) metric by metric. Timing metrics are
// refused, and the exit code is 2, when the host fingerprints differ;
// counts, ratios and sizes are compared on any host.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 1
	}
	var recs [2]Record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 1
		}
	}
	lines, refused := compareRecords(recs[0], recs[1])
	for _, l := range lines {
		fmt.Println(l)
	}
	if refused {
		fmt.Fprintf(os.Stderr, "perfbench compare: host fingerprints differ (%+v vs %+v); timing metrics not compared\n", recs[0].Host, recs[1].Host)
		return 2
	}
	return 0
}

// compareRecords renders one line per metric present in both records and
// reports whether any timing metric was refused.
func compareRecords(a, b Record) (lines []string, refused bool) {
	sameHost := a.Host == b.Host
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		if timingUnits[ma.Unit] && !sameHost {
			refused = true
			lines = append(lines, fmt.Sprintf("%-38s refused: timing across hosts", n))
			continue
		}
		delta := "n/a"
		if ma.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", (mb.Value/ma.Value-1)*100)
		}
		lines = append(lines, fmt.Sprintf("%-38s %14.6g -> %14.6g %s  %s", n, ma.Value, mb.Value, ma.Unit, delta))
	}
	return lines, refused
}
