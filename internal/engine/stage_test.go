package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// This file pins the stage executor (stage.go) to the operator-at-a-time
// executor it replaced (runReference in reference_test.go): where stages end
// and which flatten arenas the ownership rule lets be scratch, the same rows,
// ids and sink calls with every recycled scratch overwritten, the same error
// when several members and partitions fail, and cancellation.

// poisonScratch makes every stage scratch that goes back to the pool be
// overwritten with a sentinel, over its whole capacity, for the rest of the
// test: a row or an item that still points into scratch then renders the
// sentinel and differs from the reference.
func poisonScratch(t testing.TB) {
	sentinel := nested.StringVal("<recycled scratch>")
	scratchPoison = func(s *stageScratch) {
		for _, rows := range append([][]Row{s.chunk}, s.rows...) {
			rows = rows[:cap(rows)]
			for i := range rows {
				rows[i] = Row{ID: -1 << 40, Value: sentinel}
			}
		}
		for _, vals := range append([][]nested.Value{s.cols, s.vals}, s.arena...) {
			vals = vals[:cap(vals)]
			for i := range vals {
				vals[i] = sentinel
			}
		}
		sel := s.sel[:cap(s.sel)]
		for i := range sel {
			sel[i] = -1
		}
	}
	t.Cleanup(func() { scratchPoison = nil })
}

// wholeRow is a column whose path takes no step: it yields the row itself.
func wholeRow(name string) SelectField {
	return SelectField{Name: name, Col: path.Path{{Index: path.NoIndex}}}
}

var tagSubs = MapFunc{Name: "tag-subs", Fn: func(v nested.Value) (nested.Value, error) {
	return v.WithField("mapped", nested.Bool(true)), nil
}}

// stagePlan is one plan over genRows-shaped inputs "in" and "aux", with the
// stages it must be cut into: members by operator id, a flatten whose arena
// is scratch marked ~.
type stagePlan struct {
	name   string
	build  func() *Pipeline
	stages string
}

func stagePlans() []stagePlan {
	return []stagePlan{
		{"flatten-chain", func() *Pipeline { // T2's shape
			p := NewPipeline()
			f1 := p.Flatten(p.Source("in"), "subs", "sub")
			f2 := p.Flatten(f1, "sub.tags", "tag")
			p.Select(f2, Column("id", "id"), Column("k", "sub.k"), Column("tag", "tag"))
			return p
		}, "1 | 2~ 3~ 4"},
		{"struct-leaves", func() *Pipeline { // T1's shape
			p := NewPipeline()
			filt := p.Filter(p.Source("in"), boundaryPred())
			flat := p.Flatten(filt, "subs", "sub")
			sel := p.Select(flat, StructField("who", Column("id", "id"), Column("k", "sub.k")), Column("sub", "sub"))
			p.Aggregate(sel, []GroupKey{Key("sub")}, []AggSpec{Agg(AggCollectList, "who", "whos")})
			return p
		}, "1 | 2 3~ 4 | 5"},
		{"second-consumer", func() *Pipeline {
			p := NewPipeline()
			flat := p.Flatten(p.Source("in"), "subs", "sub")
			a := p.Select(flat, Column("id", "id"), Column("k", "sub.k"))
			b := p.Select(flat, Column("id", "id"), Column("k", "cat"))
			p.Union(a, b)
			return p
		}, "1 | 2 | 3 | 4 | 5"},
		{"map-after-flatten", func() *Pipeline {
			p := NewPipeline()
			flat := p.Flatten(p.Source("in"), "subs", "sub")
			p.Select(p.Map(flat, tagSubs), Column("id", "id"), Column("sub", "sub"), Column("mapped", "mapped"))
			return p
		}, "1 | 2 3 4"},
		{"computed-field", func() *Pipeline {
			p := NewPipeline()
			flat := p.Flatten(p.Source("in"), "subs", "sub")
			p.Select(flat, Column("id", "id"), Computed("x", Eq(Col("sub.k"), LitString("x"))))
			return p
		}, "1 | 2 3"},
		{"whole-row-column", func() *Pipeline {
			p := NewPipeline()
			flat := p.Flatten(p.Source("in"), "subs", "sub")
			p.Select(flat, Column("id", "id"), wholeRow("row"))
			return p
		}, "1 | 2 3"},
		{"rows-leave-through-filter", func() *Pipeline {
			p := NewPipeline()
			flat := p.Flatten(p.Source("in"), "subs", "sub")
			p.Filter(flat, Eq(Col("sub.k"), LitString("x")))
			return p
		}, "1 | 2 3"},
		{"filter-between", func() *Pipeline {
			p := NewPipeline()
			flat := p.Flatten(p.Source("in"), "subs", "sub")
			filt := p.Filter(flat, Eq(Col("sub.k"), LitString("x")))
			p.Select(filt, Column("id", "id"), Column("tags", "sub.tags"))
			return p
		}, "1 | 2~ 3 4"},
		{"distinct-orderby-limit", func() *Pipeline {
			p := NewPipeline()
			filt := p.Filter(p.Source("in"), boundaryPred())
			dist := p.Distinct(p.Select(filt, Column("cat", "cat"), Column("val", "val")))
			ord := p.OrderBy(p.Filter(dist, Not(IsNull(Col("cat")))), true, Col("cat"))
			p.Limit(p.Select(ord, Column("c", "cat")), 7)
			return p
		}, "1 | 2 3 | 4 | 5 | 6 | 7 | 8"},
		{"union-of-staged-branches", func() *Pipeline { // T4's shape
			p := NewPipeline()
			a := p.Select(p.Flatten(p.Source("in"), "subs", "sub"), Column("k", "sub.k"), Column("id", "id"))
			fb := p.Flatten(p.Flatten(p.Source("in"), "subs", "sub"), "sub.tags", "tag")
			b := p.Select(fb, Column("k", "tag"), Column("id", "id"))
			p.Aggregate(p.Union(a, b), []GroupKey{Key("k")}, []AggSpec{Agg(AggCollectSet, "id", "ids")})
			return p
		}, "1 | 2~ 3 | 4 | 5~ 6~ 7 | 8 | 9"},
		{"non-consecutive-ids", func() *Pipeline {
			p := NewPipeline()
			fa := p.Filter(p.Source("in"), boundaryPred())               // 1, 2
			fb := p.Flatten(p.Source("aux"), "subs", "sub")              // 3, 4
			sa := p.Select(fa, Column("lid", "id"), Column("lk", "cat")) // 5
			sb := p.Select(fb, Column("rid", "id"), Column("rk", "sub.k"))
			p.Join(sa, sb, Col("lk"), Col("rk"))
			return p
		}, "1 | 2 5 | 3 | 4~ 6 | 7"},
		{"boundary", boundaryPipeline, "1 | 2 3~ 4 5 | 6 | 7 | 8"},
	}
}

func renderStages(stages []*stage) string {
	var parts []string
	for i, st := range stages {
		if st.index != i+1 {
			return fmt.Sprintf("stage %d carries index %d", i+1, st.index)
		}
		var ids []string
		for k, o := range st.ops {
			id := fmt.Sprint(o.id)
			if o.typ == OpFlatten && st.arenaIsScratch(k) {
				id += "~"
			}
			ids = append(ids, id)
		}
		parts = append(parts, strings.Join(ids, " "))
	}
	return strings.Join(parts, " | ")
}

func TestStageBoundaries(t *testing.T) {
	for _, pl := range stagePlans() {
		if got := renderStages(planStages(pl.build())); got != pl.stages {
			t.Errorf("%s: stages %q, want %q", pl.name, got, pl.stages)
		}
	}
}

// renderRun renders everything a run must share with the reference: the
// output and source rows with their ids, every operator's row count and
// every call the capture sink saw, in a canonical order.
func renderRun(res *Result, sink *recordingSink) string {
	var sb strings.Builder
	for _, s := range res.Stats {
		fmt.Fprintf(&sb, "op %d %s: %d rows\n", s.OID, s.Type, s.Rows)
	}
	renderDataset(&sb, "output", res.Output)
	var srcs []int
	for oid := range res.Sources {
		srcs = append(srcs, oid)
	}
	sort.Ints(srcs)
	for _, oid := range srcs {
		renderDataset(&sb, fmt.Sprint("source ", oid), res.Sources[oid])
	}
	var calls []string
	for _, id := range sink.sources {
		calls = append(calls, fmt.Sprintf("source %d", id))
	}
	for _, u := range sink.unaries {
		calls = append(calls, fmt.Sprintf("%d unary %d <- %d", u.oid, u.out, u.in))
	}
	for _, b := range sink.binaries {
		calls = append(calls, fmt.Sprintf("%d binary %d <- %d,%d", b.oid, b.out, b.l, b.r))
	}
	for _, f := range sink.flattens {
		calls = append(calls, fmt.Sprintf("%d flatten %d <- %d[%d]", f.oid, f.out, f.in, f.pos))
	}
	for _, a := range sink.aggs {
		calls = append(calls, fmt.Sprintf("%d agg %d <- %v", a.oid, a.out, a.ins))
	}
	sort.Strings(calls)
	return sb.String() + strings.Join(calls, "\n")
}

func renderDataset(sb *strings.Builder, name string, d *Dataset) {
	for part, rows := range d.Partitions {
		for _, r := range rows {
			fmt.Fprintf(sb, "%s[%d] %d: %s\n", name, part, r.ID, r.Value)
		}
	}
}

// firstDiff cuts two long renderings down to where they part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

func planInputs(t *testing.T) map[string]*Dataset {
	return map[string]*Dataset{
		"in":          dataset(t, "in", genRows(41, 2*batchSize+37), 5),
		"aux":         dataset(t, "aux", genRows(42, batchSize+3), 2),
		"l":           dataset(t, "l", genRows(43, batchSize+31), 3),
		"r":           dataset(t, "r", genRows(44, batchSize+17), 3),
		"tweets.json": dataset(t, "tweets.json", tab1(), 2),
	}
}

// TestStagedRunsMatchReference: every plan of the boundary table, the
// join+aggregate pipeline and the running example produce the reference's
// rows, ids, row counts and sink calls at every worker count, on both join
// paths, with every recycled scratch poisoned.
func TestStagedRunsMatchReference(t *testing.T) {
	poisonScratch(t)
	plans := append(stagePlans(),
		stagePlan{name: "join-aggregate", build: joinAggPipeline},
		stagePlan{name: "figure-1", build: figure1})
	for _, pl := range plans {
		for _, threshold := range []int{-1, 0} {
			opts := Options{Partitions: 5, BroadcastJoinThreshold: threshold}
			refSink := newRecordingSink()
			opts.Sink = refSink
			ref, err := runReference(pl.build(), planInputs(t), opts)
			if err != nil {
				t.Fatalf("%s: reference: %v", pl.name, err)
			}
			want := renderRun(ref, refSink)
			for _, workers := range []int{1, 2, 4} {
				sink := newRecordingSink()
				opts.Workers, opts.Sink = workers, sink
				res, err := Run(pl.build(), planInputs(t), opts)
				if err != nil {
					t.Fatalf("%s workers %d: %v", pl.name, workers, err)
				}
				if got := renderRun(res, sink); got != want {
					t.Fatalf("%s workers %d threshold %d: run differs from the reference at %s", pl.name, workers, threshold, firstDiff(got, want))
				}
			}
		}
	}
}

// TestEveryOperatorMatchesReference: the plan cut after any operator runs,
// on the production stage plan, to the reference's rows, ids, row counts and
// sink calls. Ids are reserved in plan order, so the cut assigns every
// operator the ids the full run does: this checks each operator's output,
// also of the members a stage never materialises.
func TestEveryOperatorMatchesReference(t *testing.T) {
	poisonScratch(t)
	for _, pl := range stagePlans() {
		full := pl.build()
		for _, o := range full.Ops() {
			cut := &Pipeline{ops: full.ops[:o.id], sink: o}
			refSink := newRecordingSink()
			ref, err := runReference(cut, planInputs(t), Options{Partitions: 5, Sink: refSink})
			if err != nil {
				t.Fatalf("%s cut at %s: reference: %v", pl.name, o, err)
			}
			want := renderRun(ref, refSink)
			for _, workers := range []int{1, 4} {
				sink := newRecordingSink()
				res := runPipeline(t, cut, planInputs(t), Options{Partitions: 5, Workers: workers, Sink: sink})
				if got := renderRun(res, sink); got != want {
					t.Fatalf("%s cut at %s, workers %d: run differs from the reference at %s", pl.name, o, workers, firstDiff(got, want))
				}
			}
		}
	}
}

// failAt is a map function failing on the rows whose n is in bad.
func failAt(name string, bad ...int64) MapFunc {
	return MapFunc{Name: name, Fn: func(v nested.Value) (nested.Value, error) {
		n, _ := mustGet(v, "n").AsInt()
		for _, b := range bad {
			if n == b {
				return nested.Value{}, fmt.Errorf("%s refuses %d", name, n)
			}
		}
		return v, nil
	}}
}

func mustGet(v nested.Value, attr string) nested.Value {
	f, _ := v.Get(attr)
	return f
}

// TestStageErrorOrderIsPlanOrder: when members of one stage fail in
// different partitions, the run reports what running the operators one after
// the other reports — the earliest member in plan order, then its lowest
// failing partition — on one worker and on four. The 16 rows reach the
// source already dealt over 4 partitions and it deals them again, so row n
// lives in partition n/4.
func TestStageErrorOrderIsPlanOrder(t *testing.T) {
	chain := func(fns ...MapFunc) func() *Pipeline {
		return func() *Pipeline {
			p := NewPipeline()
			cur := p.Filter(p.Source("in"), Gt(Col("n"), LitInt(-1)))
			for _, fn := range fns {
				cur = p.Map(cur, fn)
			}
			p.Select(cur, Column("n", "n"))
			return p
		}
	}
	cases := []struct {
		name  string
		build func() *Pipeline
		want  string
	}{
		{"late-member-low-partition-vs-early-member-high-partition",
			chain(failAt("a", 7), failAt("b"), failAt("c", 0)), "engine: operator 3:map[a]: map a: a refuses 7"},
		{"same-member-two-partitions", chain(failAt("a"), failAt("b", 13, 6)), "engine: operator 4:map[b]: map b: b refuses 6"},
		{"first-row-of-the-lowest-partition", chain(failAt("a", 9, 6, 5)), "engine: operator 3:map[a]: map a: a refuses 5"},
		{"filter-declines-then-fails", func() *Pipeline {
			p := NewPipeline()
			m := p.Map(p.Source("in"), failAt("a", 3))
			p.Select(p.Filter(m, Not(Col("n"))), Column("n", "n"))
			return p
		}, "engine: operator 2:map[a]: map a: a refuses 3"},
		{"operator-between-the-members-fails-first", func() *Pipeline {
			p := NewPipeline()
			f := p.Filter(p.Source("in"), Gt(Col("n"), LitInt(-1))) // 1, 2
			other := p.Map(p.Source("in"), failAt("other", 1))      // 3, 4
			m := p.Map(f, failAt("late", 0))                        // 5: same stage as 2
			p.Union(m, other)
			return p
		}, "engine: operator 4:map[other]: map other: other refuses 1"},
	}
	for _, tc := range cases {
		_, refErr := runReference(tc.build(), slowInput(16, 4), Options{Partitions: 4})
		if refErr == nil || refErr.Error() != tc.want {
			t.Fatalf("%s: the reference reports %v, want %s", tc.name, refErr, tc.want)
		}
		for _, workers := range []int{1, 4} {
			for rep := 0; rep < 5; rep++ {
				_, err := Run(tc.build(), slowInput(16, 4), Options{Partitions: 4, Workers: workers, Sink: newRecordingSink()})
				if err == nil || err.Error() != tc.want {
					t.Fatalf("%s workers %d: got %v, want %s", tc.name, workers, err, tc.want)
				}
			}
		}
	}
}

// TestSkewedJoinMatchesReference: a shuffle join whose hot key has 100 build
// rows and 200 probe rows puts 20 000 matches into one bucket, which the join
// cuts into two chunks, the first ending at probe row 203. On one worker
// and on four, where either chunk may finish first, the run equals the
// reference executor's; with a clashing probe row planted in the second chunk
// it fails with the reference's error, and with another in the first chunk
// too, with the first chunk's. CI runs it twenty times under the race
// detector.
func TestSkewedJoinMatchesReference(t *testing.T) {
	input := func(planted map[int]string) map[string]*Dataset {
		var users, mentions []nested.Value
		for i := 0; i < 150; i++ {
			uid := "hot"
			if i%3 == 2 {
				uid = fmt.Sprint("u", i)
			}
			users = append(users, nested.Item(nested.F("uid", nested.StringVal(uid)), nested.F("uname", nested.Int(int64(i)))))
		}
		for i := 0; i < 250; i++ {
			author := "hot"
			if i%5 == 4 {
				author = fmt.Sprint("u", i)
			}
			v := nested.Item(nested.F("author", nested.StringVal(author)), nested.F("txt", nested.Int(int64(i))))
			if name, ok := planted[i]; ok { // a hot row whose payload clashes
				v = nested.Item(nested.F("author", nested.StringVal("hot")), nested.F(name, nested.Int(int64(i))))
			}
			mentions = append(mentions, v)
		}
		gen := NewIDGen(1)
		// One mentions partition: the bucket's probe rows keep their order.
		return map[string]*Dataset{"users": NewDataset("users", users, 3, gen), "mentions": NewDataset("mentions", mentions, 1, gen)}
	}
	build := func() *Pipeline {
		p := NewPipeline()
		p.Join(p.Source("users"), p.Source("mentions"), Col("uid"), Col("author"))
		return p
	}
	cases := []struct {
		name    string
		planted map[int]string
		wantErr string
	}{
		{"no-error", nil, ""},
		{"second-chunk", map[int]string{230: "uid"}, `attribute "uid" exists on both sides`},
		{"both-chunks", map[int]string{100: "uname", 230: "uid"}, `attribute "uname" exists on both sides`},
	}
	for _, tc := range cases {
		opts := Options{Partitions: 4, BroadcastJoinThreshold: -1}
		refSink := newRecordingSink()
		ref, refErr := runReference(build(), input(tc.planted), Options{Partitions: 4, BroadcastJoinThreshold: -1, Sink: refSink})
		if tc.wantErr == "" && refErr != nil || tc.wantErr != "" && (refErr == nil || !strings.Contains(refErr.Error(), tc.wantErr)) {
			t.Fatalf("%s: the reference reports %v, want %q", tc.name, refErr, tc.wantErr)
		}
		for _, workers := range []int{1, 4} {
			sink := newRecordingSink()
			opts.Workers, opts.Sink = workers, sink
			res, err := Run(build(), input(tc.planted), opts)
			switch {
			case refErr != nil:
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s workers %d: got %v, want %v", tc.name, workers, err, refErr)
				}
			case err != nil:
				t.Fatalf("%s workers %d: %v", tc.name, workers, err)
			case res.Output.Len() < joinChunkMatches:
				t.Fatalf("%d rows: the hot bucket no longer spans two chunks", res.Output.Len())
			default:
				if got, want := renderRun(res, sink), renderRun(ref, refSink); got != want {
					t.Fatalf("%s workers %d: run differs from the reference at %s", tc.name, workers, firstDiff(got, want))
				}
			}
		}
	}
}

// refuseKey is a computed join key: the value at attr, except on the row
// whose txt is bad, where it fails.
type refuseKey struct {
	attr string
	bad  int64
}

func (k refuseKey) Eval(v nested.Value) (nested.Value, error) {
	if n, _ := mustGet(v, "txt").AsInt(); n == k.bad {
		return nested.Value{}, fmt.Errorf("key refuses %d", n)
	}
	return mustGet(v, k.attr), nil
}
func (k refuseKey) Paths() []path.Path { return []path.Path{path.New(k.attr), path.New("txt")} }
func (k refuseKey) String() string     { return fmt.Sprintf("refuse(%s, %d)", k.attr, k.bad) }

// TestHotBroadcastJoinMatchesReference: a broadcast join whose hot build key
// has 100 rows meets 170 hot probe rows in probe partition 0, so that
// partition's 17 000 matches are cut into two chunks, which read the one
// shared table beside partition 1's cold rows. Built on either side, on one,
// two and four workers, with capture and without, the run equals the
// reference executor's. A clashing probe row in partition 0's second chunk
// fails the run, on one worker and on four, with the reference's error; so
// does a probe key failing in partition 1, unless partition 0 holds a shape
// error, which comes first, and a key failing in partition 0 comes before
// partition 1's shape error (these three built on the left only). CI runs
// it twenty times under the race detector.
func TestHotBroadcastJoinMatchesReference(t *testing.T) {
	input := func(planted map[int]string) map[string]*Dataset {
		var users, mentions []nested.Value
		for i := 0; i < 150; i++ {
			uid := "hot"
			if i%3 == 2 {
				uid = fmt.Sprint("u", i)
			}
			users = append(users, nested.Item(nested.F("uid", nested.StringVal(uid)), nested.F("uname", nested.Int(int64(i)))))
		}
		// Mention i lands in probe partition i%2, as its row i/2.
		for i := 0; i < 340; i++ {
			author := "hot"
			if i%2 == 1 {
				author = fmt.Sprint("u", i)
			}
			payload := "txt"
			if name, ok := planted[i]; ok { // a hot row whose payload clashes
				author, payload = "hot", name
			}
			mentions = append(mentions, nested.Item(nested.F("author", nested.StringVal(author)), nested.F(payload, nested.Int(int64(i)))))
		}
		gen := NewIDGen(1)
		// One mentions partition: the source deals its rows in order.
		return map[string]*Dataset{"users": NewDataset("users", users, 3, gen), "mentions": NewDataset("mentions", mentions, 1, gen)}
	}
	build := func(probeLeft bool, mentionKey Expr) *Pipeline {
		p := NewPipeline()
		users, mentions := p.Source("users"), p.Source("mentions")
		if probeLeft {
			p.Join(mentions, users, mentionKey, Col("uid"))
		} else {
			p.Join(users, mentions, Col("uid"), mentionKey)
		}
		return p
	}
	cases := []struct {
		name    string
		planted map[int]string
		bad     int64 // the mention whose key fails; -1: none
		wantErr string
	}{
		{"no-error", nil, -1, ""},
		{"second-chunk", map[int]string{332: "uid"}, -1, `attribute "uid" exists on both sides`},
		{"key-fails", nil, 301, "key refuses 301"},
		{"shape-error-before-key", map[int]string{332: "uname"}, 301, `attribute "uname" exists on both sides`},
		{"key-before-shape-error", map[int]string{331: "uname"}, 300, "key refuses 300"},
	}
	for _, probeLeft := range []bool{false, true} {
		for _, tc := range cases {
			if probeLeft && tc.bad >= 0 {
				continue
			}
			name := fmt.Sprintf("%s/probeLeft=%v", tc.name, probeLeft)
			var key Expr = Col("author")
			if tc.bad >= 0 {
				key = refuseKey{attr: "author", bad: tc.bad}
			}
			captures, workerCounts := []bool{false, true}, []int{1, 2, 4}
			if tc.wantErr != "" {
				captures, workerCounts = []bool{true}, []int{1, 4}
			}
			for _, capture := range captures {
				// Without capture the sinks stay empty and render nothing.
				opts, refSink := Options{Partitions: 2}, newRecordingSink()
				if capture {
					opts.Sink = refSink
				}
				ref, refErr := runReference(build(probeLeft, key), input(tc.planted), opts)
				if tc.wantErr == "" && refErr != nil || tc.wantErr != "" && (refErr == nil || !strings.Contains(refErr.Error(), tc.wantErr)) {
					t.Fatalf("%s: the reference reports %v, want %q", name, refErr, tc.wantErr)
				}
				var want string
				if refErr == nil {
					want = renderRun(ref, refSink)
				}
				for _, workers := range workerCounts {
					sink := newRecordingSink()
					opts.Workers, opts.Sink = workers, nil
					if capture {
						opts.Sink = sink
					}
					res, err := Run(build(probeLeft, key), input(tc.planted), opts)
					switch {
					case refErr != nil:
						if err == nil || err.Error() != refErr.Error() {
							t.Fatalf("%s workers %d: got %v, want %v", name, workers, err, refErr)
						}
					case err != nil:
						t.Fatalf("%s workers %d: %v", name, workers, err)
					case res.Output.Len() < joinChunkMatches:
						t.Fatalf("%d rows: probe partition 0 no longer spans two chunks", res.Output.Len())
					default:
						if got := renderRun(res, sink); got != want {
							t.Fatalf("%s workers %d capture %v: run differs from the reference at %s", name, workers, capture, firstDiff(got, want))
						}
					}
				}
			}
		}
	}
}

// TestStraddledStageCompletionOrders: stage 2 5 straddles stage 3 4 in plan
// order, and either may finish computing first. The first row of one stage's
// last map waits until the other stage's last map has taken every row, so
// that stage almost always finishes second. In both orders the rows, ids and
// sink calls equal the reference's, and so does the error when map 5 fails,
// which the scheduler learns before it reserves for stage 3 4. The held
// stage waits on the other one, so a scheduler that ran one stage at a time
// hangs here.
func TestStraddledStageCompletionOrders(t *testing.T) {
	const rows = 16
	// hold is the map whose first row waits (0: none); a failing map 5
	// refuses the last row of its morsel, so the other map still counts to
	// rows.
	build := func(hold int, fail bool) *Pipeline {
		release := make(chan struct{})
		var taken atomic.Int64 // rows the other map took
		m := func(k int) MapFunc {
			return MapFunc{Name: fmt.Sprint("m", k), Fn: func(v nested.Value) (nested.Value, error) {
				n, _ := mustGet(v, "n").AsInt()
				switch {
				case k == hold && n == 0:
					<-release
				case k == 9-hold && taken.Add(1) == rows:
					close(release)
				}
				if fail && k == 5 && n == rows-1 {
					return nested.Value{}, fmt.Errorf("m5 refuses %d", n)
				}
				return v, nil
			}}
		}
		p := NewPipeline()
		src := p.Source("in")                        // 1
		f := p.Filter(src, Gt(Col("n"), LitInt(-1))) // 2
		m4 := p.Map(p.Map(src, m(3)), m(4))          // 3, 4
		p.Union(p.Map(f, m(5)), m4)                  // 5: same stage as 2; 6
		return p
	}
	if got := renderStages(planStages(build(0, false))); got != "1 | 2 5 | 3 4 | 6" {
		t.Fatalf("stages %q, want 1 | 2 5 | 3 4 | 6", got)
	}
	for _, fail := range []bool{false, true} {
		refSink := newRecordingSink()
		ref, refErr := runReference(build(0, fail), slowInput(rows, 4), Options{Partitions: 4, Sink: refSink})
		if fail != (refErr != nil) {
			t.Fatalf("fail %v: the reference reports %v", fail, refErr)
		}
		for _, hold := range []int{4, 5} {
			for _, workers := range []int{1, 4} {
				sink := newRecordingSink()
				res, err := Run(build(hold, fail), slowInput(rows, 4), Options{Partitions: 4, Workers: workers, Sink: sink})
				switch {
				case fail:
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("map %d held, workers %d: got %v, want %v", hold, workers, err, refErr)
					}
				case err != nil:
					t.Fatalf("map %d held, workers %d: %v", hold, workers, err)
				default:
					if got, want := renderRun(res, sink), renderRun(ref, refSink); got != want {
						t.Fatalf("map %d held, workers %d: run differs from the reference at %s", hold, workers, firstDiff(got, want))
					}
				}
			}
		}
	}
}

// panicSink panics where a run hands operator oid to it: at its
// announcement (at "start") or with a morsel's associations (at "morsel").
type panicSink struct {
	*recordingSink
	oid int
	at  string
}

func (s panicSink) StartOperator(info OpInfo, parts int) {
	if s.at == "start" && info.OID == s.oid {
		panic("sink refuses to start")
	}
	s.recordingSink.StartOperator(info, parts)
}

func (s panicSink) Morsel(oid, part int, base int64, n int, a Assocs) {
	if s.at == "morsel" && oid == s.oid {
		panic("sink refuses a morsel")
	}
	s.recordingSink.Morsel(oid, part, base, n, a)
}

// TestPanicIsTheRunsError: a panic in a run — in a map's body inside a stage
// morsel, in the capture sink while a stage's goroutine starts an operator,
// or while the scheduler commits a union's partitions — fails the run with an
// operator error carrying the panic value and its stack, at every worker
// count, and leaves no goroutine behind.
func TestPanicIsTheRunsError(t *testing.T) {
	boom := MapFunc{Name: "boom", Fn: func(v nested.Value) (nested.Value, error) {
		if n, _ := mustGet(v, "n").AsInt(); n == 6 {
			panic("boom at 6")
		}
		return v, nil
	}}
	chain := func() *Pipeline {
		p := NewPipeline()
		p.Select(p.Map(p.Filter(p.Source("in"), Gt(Col("n"), LitInt(-1))), boom), Column("n", "n"))
		return p
	}
	union := func() *Pipeline {
		p := NewPipeline()
		p.Union(p.Source("in"), p.Source("in"))
		return p
	}
	cases := []struct {
		name  string
		build func() *Pipeline
		sink  CaptureSink
		value any
		want  string
	}{
		{"map", chain, nil, "boom at 6", "engine: operator 3:map[boom]: panic: boom at 6"},
		{"start", chain, panicSink{newRecordingSink(), 2, "start"}, "sink refuses to start", "engine: operator 2:filter"},
		{"commit", union, panicSink{newRecordingSink(), 3, "morsel"}, "sink refuses a morsel", "engine: operator 3:union"},
	}
	base := runtime.NumGoroutine()
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			_, err := Run(tc.build(), slowInput(16, 4), Options{Partitions: 4, Workers: workers, Sink: tc.sink})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != tc.value || len(pe.Stack) == 0 || !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("%s, workers %d: got %v, want %s…: panic: %v", tc.name, workers, err, tc.want, tc.value)
			}
			// The stage goroutines exit right after their last send.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s, workers %d: %d goroutines after the run, %d before", tc.name, workers, n, base)
			}
		}
	}
}

// TestCancelMidStage cancels a run while a morsel is provably inside the
// second member of a three-member stage: the run fails with the context's
// error, wrapped as every operator failure is.
func TestCancelMidStage(t *testing.T) {
	for _, workers := range []int{1, 4} {
		entered, release := make(chan struct{}), make(chan struct{})
		var once atomic.Bool
		p := NewPipeline()
		f := p.Filter(p.Source("in"), Gt(Col("n"), LitInt(-1)))
		m := p.Map(f, MapFunc{Name: "gate", Fn: func(v nested.Value) (nested.Value, error) {
			if once.CompareAndSwap(false, true) {
				close(entered)
			}
			<-release
			return v, nil
		}})
		p.Select(m, Column("n", "n"))
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() {
			_, err := RunContext(ctx, p, slowInput(64, 16), Options{Partitions: 16, Workers: workers})
			errCh <- err
		}()
		<-entered
		cancel()
		close(release)
		err := <-errCh
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "engine: operator 2:filter") {
			t.Errorf("workers %d: got %v, want context.Canceled under the stage's first operator", workers, err)
		}
	}
}

// TestElapsedExcludesGateWait: a source whose turn to reserve waits for a
// slow operator before it in plan order does not count the wait as its own
// time, and the members of a stage split the stage's time between them.
func TestElapsedExcludesGateWait(t *testing.T) {
	const nap = 60 * time.Millisecond
	p := NewPipeline()
	slow := p.Map(p.Source("in"), MapFunc{Name: "nap", Fn: func(v nested.Value) (nested.Value, error) {
		if n, _ := mustGet(v, "n").AsInt(); n == 0 {
			time.Sleep(nap)
		}
		return v, nil
	}})
	sel := p.Select(slow, Column("n", "n")) // same stage as the map
	late := p.Source("in")                  // reserves after the nap
	p.Union(sel, late)
	res := runPipeline(t, p, slowInput(64, 4), Options{Partitions: 4, Workers: 4})
	if got := res.Stats[late.id-1].Elapsed; got > nap/2 {
		t.Errorf("the second source reports %v: the wait for operator %d's turn is in it", got, slow.id)
	}
	mapStat, selStat := res.Stats[slow.id-1], res.Stats[sel.id-1]
	if mapStat.Stage != selStat.Stage || mapStat.Stage == res.Stats[late.id-1].Stage {
		t.Errorf("stages: map %d, select %d, second source %d", mapStat.Stage, selStat.Stage, res.Stats[late.id-1].Stage)
	}
	if mapStat.Elapsed < nap/2 || selStat.Elapsed > mapStat.Elapsed {
		t.Errorf("map %v, select %v: the map slept %v and the select did not", mapStat.Elapsed, selStat.Elapsed, nap)
	}
	out := res.Explain()
	for _, want := range []string{"stage", "map", "select", "union"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain misses %q:\n%s", want, out)
		}
	}
}
