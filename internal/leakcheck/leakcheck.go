// Package leakcheck asserts that a test leaves no goroutines behind: a
// snapshot/diff helper for suites that exercise servers, clients and
// chaos transports, where a leaked poller or heartbeat goroutine is a
// real production bug the normal pass/fail signal would miss.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// ignoredPrefixes are goroutine origins that are allowed to outlive a
// test: the runtime's own helpers, the testing framework, net/http's
// pooled idle connections (reaped by their own timers, not by Close),
// and this repo's process-global worker pool.
var ignoredPrefixes = []string{
	"testing.",
	"runtime.",
	"os/signal.",
	"internal/poll.",
	"net/http.(*Transport)",
	"net/http.(*persistConn)",
	"net/http.(*http2",
	"crophe/internal/parallel.",
}

// snapshot counts live goroutines by creation site, skipping the
// ignored origins.
func snapshot() map[string]int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return sites(string(buf[:n]))
}

// sites counts the goroutines of an all-goroutine stack dump by creation
// site ("created by <func>"), skipping the ignored origins.
func sites(dump string) map[string]int {
	counts := make(map[string]int)
	for _, g := range strings.Split(dump, "\n\n") {
		sig := ""
		for _, line := range strings.Split(g, "\n") {
			if rest, ok := strings.CutPrefix(line, "created by "); ok {
				sig = rest
				if i := strings.Index(rest, " in goroutine"); i >= 0 {
					sig = rest[:i]
				}
				break
			}
		}
		if sig == "" {
			continue // the root goroutine, or runtime internals with no creator
		}
		ignored := false
		for _, p := range ignoredPrefixes {
			if strings.HasPrefix(sig, p) {
				ignored = true
				break
			}
		}
		if !ignored {
			counts[sig]++
		}
	}
	return counts
}

// leakDiff reports creation sites with more live goroutines now than at
// baseline.
func leakDiff(baseline, now map[string]int) []string {
	var leaks []string
	for sig, c := range now {
		if c > baseline[sig] {
			leaks = append(leaks, fmt.Sprintf("%s (+%d)", sig, c-baseline[sig]))
		}
	}
	sort.Strings(leaks)
	return leaks
}

// Check snapshots the goroutines now and registers a cleanup that fails
// the test if, after a settle window, more goroutines exist per creation
// site than the snapshot held. Register it at the top of the test so the
// cleanup runs last (cleanups are LIFO) — after the test's own server
// shutdowns and client closes have run.
func Check(t testing.TB) {
	t.Helper()
	baseline := snapshot()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var leaks []string
		for {
			leaks = leakDiff(baseline, snapshot())
			if len(leaks) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leaked goroutines:\n  %s", strings.Join(leaks, "\n  "))
	})
}
