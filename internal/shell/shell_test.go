package shell_test

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/shell"
	"pebble/internal/workload"
)

func newShell(t *testing.T) (*shell.Shell, *bytes.Buffer, *core.Captured) {
	t.Helper()
	session := core.Session{Partitions: 2}
	cap, err := session.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	return shell.New(cap, &out), &out, cap
}

func TestShellPatternQuery(t *testing.T) {
	sh, out, _ := newShell(t)
	if err := sh.Exec(`//id_str == "lp", tweets(text == "Hello World" #[2,2])`); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"matched 1 result item", "Hello World", "retweet_cnt (influencing)", "cells contributing from source 1"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestShellSourceSummaryOrder: a question prints one cell summary per
// source it traces to, in ascending operator order and with the same bytes on
// every run — on the running example (both reads of its union) and on a
// question per scenario (T3, T4, D4 and D5 reach two sources).
func TestShellSourceSummaryOrder(t *testing.T) {
	questions := []struct {
		scenario, question string
		sources            int
	}{
		{"", `//text`, 2},
		{"", `//id_str == "lp", tweets(text == "Hello World" #[2,2])`, 1},
		{"T1", `//id_str == "hotuser", tweets(text ~= "good")`, 1},
		{"T2", `tag == "BTS"`, 1},
		{"T3", `//id_str == "hotuser", tweets(text)`, 2},
		{"T4", `tag == "BTS", users`, 2},
		{"T5", `author_id == "hotuser"`, 1},
		{"D1", `pkey == "conf/pebble/2015"`, 1},
		{"D2", `//key == "conf/pebble/2015"`, 1},
		{"D3", `aid == "a00000", works`, 1},
		{"D4", `pkey == "conf/pebble/2015", inproceedings`, 2},
		{"D5", `pkey == "conf/pebble/2015", inproceedings`, 2},
	}
	for _, q := range questions {
		t.Run(cmp.Or(q.scenario, "example"), func(t *testing.T) {
			var (
				sh  *shell.Shell
				out *bytes.Buffer
			)
			if q.scenario == "" {
				sh, out, _ = newShell(t)
			} else {
				sc, err := workload.ByName(q.scenario)
				if err != nil {
					t.Fatal(err)
				}
				cap, err := core.Session{Partitions: 2}.Capture(sc.Build(), sc.Input(workload.Scale{SimGB: 1, TweetsPerGB: 300, RecordsPerGB: 300, Seed: 42}, 2))
				if err != nil {
					t.Fatal(err)
				}
				out = new(bytes.Buffer)
				sh = shell.New(cap, out)
			}
			var first string
			for i := 0; i < 16; i++ {
				out.Reset()
				if err := sh.Exec(q.question); err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					if out.String() != first {
						t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, out, first)
					}
					continue
				}
				first = out.String()
				var oids []int
				for _, line := range strings.Split(first, "\n") {
					if rest, ok := strings.CutPrefix(line, "cells contributing from source "); ok {
						oid, err := strconv.Atoi(rest[:strings.IndexByte(rest, ':')])
						if err != nil {
							t.Fatalf("summary line %q: %v", line, err)
						}
						oids = append(oids, oid)
					}
				}
				if len(oids) != q.sources || !slices.IsSorted(oids) {
					t.Fatalf("source summaries for sources %v, want %d in ascending order:\n%s", oids, q.sources, first)
				}
			}
		})
	}
}

func TestShellCommands(t *testing.T) {
	sh, out, cap := newShell(t)
	for _, cmd := range []string{"help", "plan", "result 2", "provenance"} {
		out.Reset()
		if err := sh.Exec(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s produced no output", cmd)
		}
	}
	out.Reset()
	if err := sh.Exec("plan"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "9:aggregate") {
		t.Errorf("plan output wrong:\n%s", out)
	}
	// result truncation
	out.Reset()
	if err := sh.Exec("result 1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "more rows") {
		t.Errorf("result truncation missing:\n%s", out)
	}
	// impact
	srcRow := cap.Result.Sources[1].Rows()[1] // a Hello World tweet or similar
	out.Reset()
	if err := sh.Exec(strings.Join([]string{"impact", "1", strconv.FormatInt(srcRow.ID, 10)}, " ")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "affects") {
		t.Errorf("impact output wrong:\n%s", out)
	}
}

// TestShellExplain: the running example is cut into stages 1 | 2 3 | 4 | 5 6 |
// 7 | 8 | 9; explain lists every operator with its stage and its row count.
func TestShellExplain(t *testing.T) {
	sh, out, cap := newShell(t)
	if err := sh.Exec("explain"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 11 || !strings.Contains(lines[0], "stage") {
		t.Fatalf("explain prints %d lines, want a header, nine operators and a total:\n%s", len(lines), out)
	}
	wantStage := []string{"1", "2", "2", "3", "4", "4", "5", "6", "7"}
	for i, st := range cap.Result.Stats {
		f := strings.Fields(lines[i+1])
		if len(f) != 5 || f[0] != strconv.Itoa(st.OID) || f[1] != string(st.Type) || f[2] != wantStage[i] || f[3] != strconv.Itoa(st.Rows) {
			t.Errorf("operator %d: explain line %q, want stage %s and %d rows", st.OID, lines[i+1], wantStage[i], st.Rows)
		}
	}
	if cap.Result.Stats[4].Rows == 0 || cap.Result.Stats[1].Rows == 0 {
		t.Errorf("operators inside a stage report no rows:\n%s", out)
	}
}

func TestShellErrors(t *testing.T) {
	sh, _, _ := newShell(t)
	if err := sh.Exec("== broken pattern"); err == nil {
		t.Error("bad pattern accepted")
	}
	if err := sh.Exec("impact nope"); err == nil {
		t.Error("bad impact args accepted")
	}
	if err := sh.Exec("impact a b"); err == nil {
		t.Error("non-numeric impact args accepted")
	}
	if err := sh.Exec("result -3"); err == nil {
		t.Error("negative result count accepted")
	}
}

func TestShellRunLoop(t *testing.T) {
	sh, out, _ := newShell(t)
	in := strings.NewReader("help\nresult 1\n//id_str == \"lp\"\nquit\nresult 1\n")
	if err := sh.Run(in); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "commands:") || !strings.Contains(got, "matched") {
		t.Errorf("run loop output wrong:\n%s", got)
	}
	// The line after quit must not execute.
	if strings.Count(got, "more rows") != 1 {
		t.Errorf("commands after quit executed:\n%s", got)
	}
}

// TestShellSaveLoad: save writes the run's stream and nothing beside it, and
// a fresh shell that loads it answers the pattern query exactly like the
// capturing shell did — with a stale .idx left beside the .pbl too, which
// load never opens.
func TestShellSaveLoad(t *testing.T) {
	sh, out, _ := newShell(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.pbl")

	if err := sh.Exec("save " + path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "saved provenance") {
		t.Errorf("save output wrong:\n%s", out)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "run.pbl" {
		t.Fatalf("save left %v (%v), want run.pbl alone", entries, err)
	}

	answer := func(s *shell.Shell, buf *bytes.Buffer) string {
		buf.Reset()
		if err := s.Exec(`//id_str == "lp", tweets(text == "Hello World" #[2,2])`); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := answer(sh, out)
	for _, stale := range [][]byte{nil, []byte("PBLI\x02\x00 a sidecar of some other run")} {
		if stale != nil {
			if err := os.WriteFile(path+".idx", stale, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sh2, out2, _ := newShell(t)
		if err := sh2.Exec("load " + path); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out2.String(), "sidecar") {
			t.Errorf("load spoke of a sidecar:\n%s", out2)
		}
		if got := answer(sh2, out2); got != want {
			t.Errorf("loaded shell (stale .idx: %v) answers differ:\n%s\nwant\n%s", stale != nil, got, want)
		}
	}

	// Error paths: missing args and unreadable files.
	if err := sh.Exec("save"); err == nil {
		t.Error("bare save accepted")
	}
	if err := sh.Exec("load"); err == nil {
		t.Error("bare load accepted")
	}
	if err := sh.Exec("load " + filepath.Join(t.TempDir(), "missing.pbl")); err == nil {
		t.Error("load of a missing file accepted")
	}
	// A truncated run stream fails the load, and the shell keeps answering
	// from the run it had.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sh.Exec("load " + path); err == nil {
		t.Error("load of a truncated run accepted")
	}
	if got := answer(sh, out); got != want {
		t.Errorf("answers after a failed load differ:\n%s\nwant\n%s", got, want)
	}
}

func TestShellSchema(t *testing.T) {
	sh, out, _ := newShell(t)
	if err := sh.Exec("schema"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "tweets:{{<text:string>}}") {
		t.Errorf("schema output missing aggregate type:\n%s", got)
	}
}

// TestShellSchemaNamesTheCause: an operator the analysis gives no type is
// below a map, or reads an input without rows; the schema line names which —
// the source of a filter on an empty input, the map above a wrapped one.
func TestShellSchemaNamesTheCause(t *testing.T) {
	p := engine.NewPipeline()
	empty := p.Filter(p.Source("empty.json"), engine.Gt(engine.Col("n"), engine.LitInt(1)))
	p.Union(p.Map(empty, engine.MapFunc{Name: "id", Fn: func(v nested.Value) (nested.Value, error) { return v, nil }}), empty)
	cap, err := core.Session{Partitions: 1}.Capture(p, map[string]*engine.Dataset{"empty.json": engine.FromRows("empty.json", nil)})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := shell.New(cap, &out).Exec("schema"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"  1   (unknown: no rows in 1:source(empty.json))\n",
		"  2   (unknown: no rows in 1:source(empty.json))\n",
		"  3   (unknown: below a map)\n",
		"  4   (unknown: below a map)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("schema output missing %q:\n%s", want, got)
		}
	}
}

func TestShellJSON(t *testing.T) {
	sh, out, _ := newShell(t)
	if err := sh.Exec(`json //id_str == "lp", tweets(text == "Hello World" #[2,2])`); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{`"matched": 1`, `"contributing": true`, `"tweets.json"`} {
		if !strings.Contains(got, want) {
			t.Errorf("json output missing %q:\n%s", want, got)
		}
	}
	if err := sh.Exec("json"); err == nil {
		t.Error("bare json accepted")
	}
}

// TestShellLoadLeavesItsCaptureAlone: load makes the session a new capture
// over the reloaded run; the capture the shell was built on keeps its own
// provenance and tracer, and still answers as it did before the load.
func TestShellLoadLeavesItsCaptureAlone(t *testing.T) {
	sh, out, cap := newShell(t)
	path := filepath.Join(t.TempDir(), "run.pbl")
	if err := sh.Exec("save " + path); err != nil {
		t.Fatal(err)
	}
	run, tracer := cap.Provenance, cap.Tracer()
	report := func() string {
		t.Helper()
		q, err := cap.QueryAll()
		if err != nil {
			t.Fatal(err)
		}
		return q.Report()
	}
	before := report()

	if err := sh.Exec("load " + path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loaded provenance") {
		t.Errorf("load output wrong:\n%s", out)
	}
	if cap.Provenance != run || cap.Tracer() != tracer {
		t.Error("load re-pointed the capture the shell was built on")
	}
	if after := report(); after != before {
		t.Errorf("the original capture answers differently after load:\n%s\nwant\n%s", after, before)
	}
}
