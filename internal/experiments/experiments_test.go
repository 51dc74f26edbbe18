package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// quickParams shrinks every experiment so the whole suite runs in
// seconds. The full-scale run happens via cmd/experiments.
func quickParams(buf *bytes.Buffer) Params {
	return Params{
		Out:   buf,
		RTT:   50 * time.Microsecond,
		Quick: true,
	}.WithDefaults()
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must have a driver.
	want := []string{
		"fig3", "fig4a", "fig4b", "tab1", "tab2",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19a", "fig19b", "fig20", "tab3",
		"heat", "scale", "dr",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
}

func TestUnknownSystem(t *testing.T) {
	if _, err := NewSystem("bogus", nil, SystemOpts{}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	err := Run([]string{"fig999"}, Params{Out: &buf, Quick: true})
	if err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunMeasuresOncePerDriver registers a driver that returns two
// figures' rows under both ids: Run must call it once and print each
// figure's table, formatted by unit.
func TestRunMeasuresOncePerDriver(t *testing.T) {
	calls := 0
	both := func(Params) ([]Row, error) {
		calls++
		return []Row{
			{"x-a", "mantle", "create", 1500, OpsPerSec},
			{"x-b", "mantle create", "lookup", 250, Micros},
			{"x-b", "mantle create", "share", 12.5, Percent},
		}, nil
	}
	Registry["x-a"] = experiment{both, "Figure A", "system"}
	Registry["x-b"] = experiment{both, "Figure B", "system op"}
	defer delete(Registry, "x-a")
	defer delete(Registry, "x-b")
	var buf bytes.Buffer
	if err := Run([]string{"x-a", "x-b"}, Params{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("driver ran %d times for its two figures, want 1", calls)
	}
	for _, want := range []string{"== Figure A ==", "1.5 Kop/s", "== Figure B ==", "system op", "250µs", "12.5%"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// unclaimed holds rows a driver returned for a figure whose test has not
// run yet: the fig12 test's measurement also yields Figure 13, so the
// pair is measured once per pass over the tests, as in Run.
var unclaimed = map[string][]Row{}

// grid is one figure's values by label, then series.
type grid map[string]map[string]float64

// checkRows is the row test: it measures figure id at quick scale (or
// takes the rows an earlier test's measurement left for it), requires a
// full label × series grid of finite, non-negative values, and hands the
// grid to check, the figure's own claims. A prose driver (no title)
// must return no rows and no error.
func checkRows(t *testing.T, id string, check func(t *testing.T, g grid)) {
	t.Helper()
	if testing.Short() {
		t.Skipf("%s: experiment tests are the long lane (make chaos)", id)
	}
	if _, ok := unclaimed[id]; !ok {
		var buf bytes.Buffer
		if err := measure(id, quickParams(&buf), unclaimed); err != nil {
			t.Fatalf("%s: %v\noutput:\n%s", id, err, buf.String())
		}
	}
	rows := unclaimed[id]
	delete(unclaimed, id)
	if Registry[id].title == "" {
		if len(rows) != 0 {
			t.Fatalf("%s prints prose but returned %d rows", id, len(rows))
		}
		return
	}
	if len(rows) == 0 {
		t.Fatalf("%s returned no rows", id)
	}
	g := grid{}
	series := map[string]bool{}
	for _, r := range rows {
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || r.Value < 0 {
			t.Errorf("%s %q/%q = %v, want finite and >= 0", id, r.Label, r.Series, r.Value)
		}
		if g[r.Label] == nil {
			g[r.Label] = map[string]float64{}
		}
		if _, dup := g[r.Label][r.Series]; dup {
			t.Errorf("%s %q/%q measured twice", id, r.Label, r.Series)
		}
		g[r.Label][r.Series] = r.Value
		series[r.Series] = true
	}
	for label, row := range g {
		if len(row) != len(series) {
			t.Errorf("%s %q has %d of the %d series", id, label, len(row), len(series))
		}
	}
	if check != nil {
		check(t, g)
	}
}

// cell is g's value at label/series; a missing cell fails the test.
func (g grid) cell(t *testing.T, label, series string) float64 {
	t.Helper()
	v, ok := g[label][series]
	if !ok {
		t.Errorf("no %q/%q cell", label, series)
	}
	return v
}

// checkPhases holds the phase accounting Figures 13 and 15 rest on.
func checkPhases(t *testing.T, g grid) {
	for label, row := range g {
		system, op, _ := strings.Cut(label, " ")
		rename := strings.HasPrefix(op, "dirrename")
		if !rename && row["loopdetect"] != 0 {
			t.Errorf("%s: loopdetect %v on a non-rename op", label, row["loopdetect"])
		}
		if system == "infinifs" && (op == "objstat" || op == "dirstat") && row["execute"] != 0 {
			t.Errorf("%s: execute %v, want 0 (InfiniFS reads finish in lookup)", label, row["execute"])
		}
		if system == "locofs" && (op == "dirstat" || rename || strings.HasPrefix(op, "mkdir")) && row["lookup"] != 0 {
			t.Errorf("%s: lookup %v, want 0 (the directory server books resolution under execute)", label, row["lookup"])
		}
		if system == "mantle" && rename && (row["lookup"] != 0 || row["loopdetect"] == 0) {
			t.Errorf("%s: lookup %v loopdetect %v, want lookup merged into loop detection",
				label, row["lookup"], row["loopdetect"])
		}
	}
}

func TestFig3Quick(t *testing.T) {
	checkRows(t, "fig3", func(t *testing.T, g grid) {
		for ns, row := range g {
			if d := row["dirs"]; d < 8.3 || d > 18 {
				t.Errorf("%s: dirs %.1f%%, outside the paper's 8.3–18%%", ns, d)
			}
		}
	})
}

func TestFig4aQuick(t *testing.T) {
	checkRows(t, "fig4a", func(t *testing.T, g grid) {
		for op, row := range g {
			if row["lookup"] < row["execute"] || row["lookup"] < row["loopdetect"] {
				t.Errorf("%s: lookup %v is not the largest phase (%v)", op, row["lookup"], row)
			}
		}
	})
}

func TestFig4bQuick(t *testing.T) { checkRows(t, "fig4b", nil) }

func TestTable1Quick(t *testing.T) {
	checkRows(t, "tab1", func(t *testing.T, g grid) {
		for system, want := range map[string]float64{"tectonic": 10, "infinifs": 10, "locofs": 1, "mantle": 1} {
			if got := g.cell(t, system, "RTTs/lookup"); got != want {
				t.Errorf("%s: %v RTTs per depth-10 lookup, want %v", system, got, want)
			}
		}
	})
}

func TestTable2Quick(t *testing.T) { checkRows(t, "tab2", nil) }
func TestFig10Quick(t *testing.T)  { checkRows(t, "fig10", nil) }
func TestFig11Quick(t *testing.T)  { checkRows(t, "fig11", nil) }
func TestFig12Quick(t *testing.T)  { checkRows(t, "fig12", nil) }
func TestFig13Quick(t *testing.T)  { checkRows(t, "fig13", checkPhases) }
func TestFig14Quick(t *testing.T)  { checkRows(t, "fig14", nil) }
func TestFig15Quick(t *testing.T)  { checkRows(t, "fig15", checkPhases) }
func TestFig19aQuick(t *testing.T) { checkRows(t, "fig19a", nil) }
func TestFig19bQuick(t *testing.T) { checkRows(t, "fig19b", nil) }
func TestFig20Quick(t *testing.T)  { checkRows(t, "fig20", nil) }
func TestDRQuick(t *testing.T)     { checkRows(t, "dr", nil) }
func TestScaleQuick(t *testing.T)  { checkRows(t, "scale", nil) }

func TestFig16Quick(t *testing.T) {
	checkRows(t, "fig16", func(t *testing.T, g grid) {
		for _, op := range []string{"dirstat", "mkdir-e", "dirrename-s"} {
			if v := g.cell(t, "mantle-base", op); v != 1 {
				t.Errorf("mantle-base %s = %vx, want exactly 1", op, v)
			}
		}
	})
}

func TestFig17Quick(t *testing.T) {
	checkRows(t, "fig17", func(t *testing.T, g grid) {
		for _, system := range Systems {
			if v := g.cell(t, system+" vs d=1", "d=1"); v != 1 {
				t.Errorf("%s: shallowest depth = %vx itself, want exactly 1", system, v)
			}
		}
	})
}

func TestFig18Quick(t *testing.T) {
	checkRows(t, "fig18", func(t *testing.T, g grid) {
		if p, m := g.cell(t, "no cache", "cached prefixes"), g.cell(t, "no cache", "cache memory"); p != 0 || m != 0 {
			t.Errorf("no cache holds %v prefixes in %v bytes", p, m)
		}
		for k := 2; k <= 5; k++ {
			prev, cur := fmt.Sprintf("k=%d", k-1), fmt.Sprintf("k=%d", k)
			for _, s := range []string{"cached prefixes", "cache memory"} {
				if g.cell(t, cur, s) > g.cell(t, prev, s) {
					t.Errorf("%s %s %v > %s %v: must not grow with k", cur, s, g[cur][s], prev, g[prev][s])
				}
			}
		}
		for _, s := range []string{"cached prefixes", "cache memory"} {
			if g.cell(t, "k=3", s) >= g.cell(t, "k=1", s) {
				t.Errorf("k=3 %s %v, want below k=1's %v", s, g["k=3"][s], g["k=1"][s])
			}
		}
	})
}

func TestTable3Quick(t *testing.T) {
	checkRows(t, "tab3", func(t *testing.T, g grid) {
		for _, sp := range table3Specs {
			if got := g.cell(t, sp.name, "small obj"); math.Abs(got-sp.small*100) > 2 {
				t.Errorf("%s: %.1f%% small objects, spec %.0f%%", sp.name, got, sp.small*100)
			}
		}
	})
}

func TestHeatQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("heat: experiment smoke tests are the long lane (make chaos)")
	}
	var buf, report bytes.Buffer
	p := quickParams(&buf)
	p.HeatOut = &report
	if _, err := Registry["heat"].driver(p); err != nil {
		t.Fatalf("heat: %v\noutput so far:\n%s", err, buf.String())
	}
	for _, w := range []string{"zipf objstat", "hottest dir", "slow ops"} {
		if !strings.Contains(buf.String(), w) {
			t.Fatalf("heat output missing %q:\n%s", w, buf.String())
		}
	}
	for _, w := range []string{"== proxy ==", "== tafdb ==", "shard"} {
		if !strings.Contains(report.String(), w) {
			t.Fatalf("heat report missing %q:\n%s", w, report.String())
		}
	}
}
