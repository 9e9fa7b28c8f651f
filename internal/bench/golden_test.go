package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExperiments is every deterministic experiment at full coverage,
// in paper order: the static tables as rendered text, the simulated
// ones as their row structs. Rows print with %+v, and %v on a float64
// is its shortest round-trip form, so the golden file is bit-exact.
var goldenExperiments = []struct {
	id     string
	output func() (string, error)
}{
	{"table1", func() (string, error) { return Table1(), nil }},
	{"table2", func() (string, error) { return Table2(), nil }},
	{"table3", func() (string, error) { return Table3(), nil }},
	{"table4", func() (string, error) {
		rows, err := Table4()
		return goldenRows(rows), err
	}},
	{"fig9", func() (string, error) { return goldenRows(Figure9(false)), nil }},
	{"fig10", func() (string, error) { return goldenRows(Figure10(false)), nil }},
	{"fig11", func() (string, error) { return goldenRows(Figure11(false)), nil }},
	{"ablations", func() (string, error) { return goldenRows(Ablations()), nil }},
}

func goldenRows[R any](rows []R) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return b.String()
}

// splitGolden maps each experiment id of a golden file to its section,
// which opens with an "== id ==" line.
func splitGolden(data string) map[string]string {
	sections := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(data, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			id = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==\n")
			sections[id] = ""
			continue
		}
		sections[id] += line
	}
	return sections
}

// firstDiff names the first line at which got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// TestExperimentsGolden pins the reproduced numbers of Tables I–IV,
// Figures 9–11 and the ablations against testdata/experiments.golden, so
// any change that moves a published number fails here and names the
// experiment it moved. After an intended model change, re-record with
//
//	UPDATE_GOLDEN=1 go test ./internal/bench -run ExperimentsGolden
func TestExperimentsGolden(t *testing.T) {
	var all bytes.Buffer
	got := map[string]string{}
	for _, e := range goldenExperiments {
		out, err := e.output()
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		got[e.id] = out
		fmt.Fprintf(&all, "== %s ==\n%s", e.id, out)
	}
	path := filepath.Join("testdata", "experiments.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(all.Bytes(), data) {
		return
	}
	want := splitGolden(string(data))
	for _, e := range goldenExperiments {
		w, ok := want[e.id]
		switch {
		case !ok:
			t.Errorf("%s: no section in %s", e.id, path)
		case got[e.id] != w:
			t.Errorf("%s: output drifted from %s at %s", e.id, path, firstDiff(got[e.id], w))
		}
	}
	if !t.Failed() {
		t.Errorf("%s: sections match but the file differs (order or extra sections)", path)
	}
}
