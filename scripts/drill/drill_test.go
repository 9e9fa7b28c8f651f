package main

import (
	"io"
	"reflect"
	"sort"
	"testing"
)

// TestScenarioTable pins the scenario names the Make targets call, so
// dropping one fails here rather than in a smoke run.
func TestScenarioTable(t *testing.T) {
	var got []string
	for name := range scenarios {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"cluster", "failover", "sdc", "serve"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenarios = %v; want %v", got, want)
	}
}

// TestUsageErrorsExit2: a bad command line is rejected before any
// process starts.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-bin", "crophe-serve", "nope"},
		{"-bin", "crophe-serve"},
		{"-bin", "crophe-serve", "sdc"},
		{"-bin", "crophe-serve", "serve", "cluster"},
		{"serve"},
		{"-nosuchflag", "serve"},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d; want 2", args, code)
		}
	}
}
