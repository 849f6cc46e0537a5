package engine

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// This file pins what the shape-shared value model buys the engine: rows
// stay small, every operator hands one shape to all the rows a partition
// produces, and producing a row allocates nothing of its own. The benchmark
// at the end is the engine's item-access layer without the daemon around it.

// TestRowLayout: a row is its id and a 32-byte Value, so every arena,
// gather column and shuffle bucket moves 40 bytes per row.
func TestRowLayout(t *testing.T) {
	if size := unsafe.Sizeof(Row{}); size != 40 {
		t.Errorf("Row is %d bytes, want 40", size)
	}
}

var (
	recordShape = nested.NewShape("key", "record_type", "title", "authors", "year", "crossref", "pages", "ee")
	authorShape = nested.NewShape("id", "name")
	venueShape  = nested.NewShape("vkey", "booktitle", "publisher")
	tweetShape  = nested.NewShape("text", "user", "user_mentions", "retweet_cnt", "hashtags", "created_at", "lang", "meta")
	userShape   = nested.NewShape("id_str", "name")
	tagShape    = nested.NewShape("tag")
	metaShape   = nested.NewShape("place", "quote_count", "reply_count", "truncated", "seq", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11")
	profShape   = nested.NewShape("uid", "followers")
)

// recordRows returns n DBLP-shaped rows (narrow, one small nested bag) and
// the n/10 venue rows they reference through crossref.
func recordRows(n int) (records, venues []Row) {
	values := make([]nested.Value, n)
	for i := range values {
		authors := make([]nested.Value, 1+i%3)
		for a := range authors {
			authors[a] = authorShape.Item(nested.StringVal(fmt.Sprint("a", (i+a)%997)), nested.StringVal("Ada Author"))
		}
		values[i] = recordShape.Item(
			nested.StringVal(fmt.Sprint("conf/p", i)), nested.StringVal("inproceedings"), nested.StringVal("a title of some words"),
			nested.Bag(authors...), nested.Int(int64(2010+i%10)), nested.StringVal(fmt.Sprint("conf/v", i%(n/10+1))),
			nested.StringVal("1-12"), nested.StringVal("https://doi.example/x"))
	}
	vvals := make([]nested.Value, n/10+1)
	for i := range vvals {
		vvals[i] = venueShape.Item(nested.StringVal(fmt.Sprint("conf/v", i)), nested.StringVal("EDBT"), nested.StringVal("OpenProceedings"))
	}
	return asRows(values), asRows(vvals)
}

// tweetRows returns n tweet-shaped rows (wide, nested items and bags three
// levels deep) and one profile row per user.
func tweetRows(n int) (tweets, profiles []Row) {
	user := func(i int) nested.Value {
		return userShape.Item(nested.StringVal(fmt.Sprint("u", i%(n/20+1))), nested.StringVal("Holly Otter"))
	}
	values := make([]nested.Value, n)
	for i := range values {
		mentions := make([]nested.Value, i%4)
		for m := range mentions {
			mentions[m] = user(i + m + 1)
		}
		tags := make([]nested.Value, i%3)
		for g := range tags {
			tags[g] = tagShape.Item(nested.StringVal("BTS"))
		}
		meta := make([]nested.Value, metaShape.Len())
		meta[0] = nested.Bag(nested.Double(52.5), nested.Double(13.4))
		for a := 1; a < len(meta); a++ {
			meta[a] = nested.Int(int64(i * a))
		}
		values[i] = tweetShape.Item(
			nested.StringVal("hello world good morning @u1 #BTS"), user(i), nested.Bag(mentions...), nested.Int(int64(i%5)),
			nested.Bag(tags...), nested.StringVal("2019-01-01T00:00:00Z"), nested.StringVal("en"), metaShape.Item(meta...))
	}
	pvals := make([]nested.Value, n/20+1)
	for i := range pvals {
		pvals[i] = profShape.Item(nested.StringVal(fmt.Sprint("u", i)), nested.Int(int64(i)))
	}
	return asRows(values), asRows(pvals)
}

// keyed shuffles rows into one bucket on key, as the join's shuffle does.
func keyed(tb testing.TB, rows []Row, key string) []keyedRow {
	tb.Helper()
	e := &executor{ctx: context.Background()}
	buckets, _, err := e.shuffle(&Dataset{Partitions: [][]Row{rows}}, 1, exprShuffleKey(Col(key)), 1, false)
	if err != nil {
		tb.Fatal(err)
	}
	return buckets[0]
}

// itemKernel is one engine kernel over one input, named for the benchmark;
// in is the number of input rows one run reads.
type itemKernel struct {
	name string
	in   int
	run  func() (morselOut, error)
}

// The filter kernel's two paths over DBLP records: the column kernel takes
// keepYear, and it declines keepAll (Not over a string column) which the row
// loop answers, short-circuiting Or before it reaches the string.
var (
	keepYear = Ge(Col("year"), LitInt(2015))
	keepAll  = Or(Lt(Col("year"), LitInt(3000)), Not(Col("title")))
)

// itemKernels returns every kernel path over nRecords DBLP-shaped and
// nTweets tweet-shaped rows: filter (column kernel and row loop), select,
// map, flatten, shuffled and broadcast join, aggregate and union.
func itemKernels(tb testing.TB, nRecords, nTweets int) []itemKernel {
	records, venues := recordRows(nRecords)
	tweets, profiles := tweetRows(nTweets)
	recordSel := []SelectField{Column("key", "key"), Column("title", "title"), Column("year", "year")}
	tweetSel := []SelectField{Column("text", "text"), StructField("who", Column("id", "user.id_str"), Column("seq", "meta.seq")), Column("n", "retweet_cnt")}
	recordSS, tweetSS := newSelectShape(recordSel), newSelectShape(tweetSel)
	recordKeys, venueKeys := keyed(tb, records, "crossref"), keyed(tb, venues, "vkey")
	tweetKeys, profileKeys := keyed(tb, tweets, "user.id_str"), keyed(tb, profiles, "uid")
	identity := MapFunc{Name: "identity", Fn: func(v nested.Value) (nested.Value, error) { return v, nil }}

	// Broadcast join: the venues are the build side, built once; a run is
	// what one probe partition costs, its keys and its probe.
	table, probeKey := newKeyTable(len(venues)), exprShuffleKey(Col("crossref"))
	buildRows, err := broadcastBuild(table, exprShuffleKey(Col("vkey")), &Dataset{Partitions: [][]Row{venues}})
	if err != nil {
		tb.Fatal(err)
	}
	broadcast := func() (morselOut, error) {
		keys, err := probeKey.evalMorsel(records)
		if err != nil {
			return morselOut{}, err
		}
		b := planBroadcastProbe(table, buildRows, records, keys, true, true, joinChunkMatches)
		return emitChunks(&b)
	}

	// Aggregate: one bucket holding every record, grouped by venue.
	agg := &Op{groupBy: []GroupKey{Key("crossref")}, aggs: []AggSpec{
		Agg(AggCount, "", "n"), Agg(AggSum, "year", "years"), Agg(AggMax, "title", "last"), Agg(AggCollectList, "key", "keys"),
	}}
	e := &executor{ctx: context.Background()}
	groups, _, err := e.shuffle(&Dataset{Partitions: [][]Row{records}}, 1, groupShuffleKey(agg.groupBy), 1, true)
	if err != nil {
		tb.Fatal(err)
	}
	aggShape := groupShape(agg.groupBy, agg.aggs)

	// Union: the records with themselves, one partition a side; a run is
	// both morsels, and the first is checked.
	p := NewPipeline()
	union := p.Union(p.Source("a"), p.Source("b"))
	whole := &Dataset{Partitions: [][]Row{records}}
	ue := &executor{ctx: context.Background(), opts: Options{Sink: newRecordingSink()},
		outputs: []*Dataset{1: whole, 2: whole}} // by id: the sources

	d := ownedDst()
	nr, nt := len(records), len(tweets)
	return []itemKernel{
		{"dblp/filter", nr, func() (morselOut, error) { return filterMorsel(keepYear, records, d) }},
		{"dblp/filter-rows", nr, func() (morselOut, error) { return filterMorsel(keepAll, records, d) }},
		{"dblp/select", nr, func() (morselOut, error) { return selectMorsel(recordSel, recordSS, records, d) }},
		{"dblp/map", nr, func() (morselOut, error) { return mapMorsel(identity, records, d) }},
		{"dblp/flatten", nr, func() (morselOut, error) { return flattenMorsel(path.New("authors"), "author", records, d, false) }},
		{"dblp/join", nr + len(venues), func() (morselOut, error) {
			return joinBucket(venueKeys, recordKeys, false, recordShape, true, joinChunkMatches)
		}},
		{"dblp/broadcast-join", nr, broadcast},
		{"dblp/aggregate", nr, func() (morselOut, error) { return aggBucket(agg, aggShape, groups[0], true) }},
		{"dblp/union", 2 * nr, func() (morselOut, error) {
			outs, err := ue.execUnion(union)
			if err != nil {
				return morselOut{}, err
			}
			return outs[0], nil
		}},
		{"twitter/filter", nt, func() (morselOut, error) { return filterMorsel(Gt(Col("retweet_cnt"), LitInt(2)), tweets, d) }},
		{"twitter/select", nt, func() (morselOut, error) { return selectMorsel(tweetSel, tweetSS, tweets, d) }},
		{"twitter/flatten", nt, func() (morselOut, error) {
			return flattenMorsel(path.New("user_mentions"), "mention", tweets, d, false)
		}},
		{"twitter/join", nt + len(profiles), func() (morselOut, error) {
			return joinBucket(profileKeys, tweetKeys, false, tweetShape, true, joinChunkMatches)
		}},
	}
}

// allocsPerInputRow is the kernels' allocation budget: a handful of
// allocations per morsel — the output slice, the arena, the shapes a memo
// derives, the working arrays, one column batch per 256 rows — measured per
// input row. One allocation per row, however small, adds 1.
const allocsPerInputRow = 0.25

// TestKernelsShareShapesAndAllocatePerMorsel: at one input shape every
// output row of a kernel points to the same Shape (nested output items to
// theirs), and no kernel path allocates per row: each stays within
// allocsPerInputRow. The two filter rows are shown to take the two paths.
func TestKernelsShareShapesAndAllocatePerMorsel(t *testing.T) {
	records, _ := recordRows(3000)
	if _, ok := filterSelectVec(keepYear, records, nil, make([]nested.Value, batchSize)); !ok {
		t.Fatalf("the column kernel declined %s; dblp/filter no longer measures it", keepYear)
	}
	if _, ok := filterSelectVec(keepAll, records, nil, make([]nested.Value, batchSize)); ok {
		t.Fatalf("the column kernel took %s; dblp/filter-rows no longer measures filterSelectRows", keepAll)
	}
	for _, k := range itemKernels(t, 3000, 400) {
		t.Run(k.name, func(t *testing.T) {
			out, err := k.run()
			if err != nil || out.n < 100 {
				t.Fatalf("%d rows, %v", out.n, err)
			}
			first := out.rows[0].Value
			for i, p := range out.rows {
				if p.Value.Shape() != first.Shape() {
					t.Fatalf("row %d does not share the shape of row 0: %s", i, p.Value)
				}
				if who, ok := p.Value.Get("who"); ok {
					if w0, _ := first.Get("who"); who.Shape() != w0.Shape() {
						t.Fatalf("row %d: nested item does not share its shape", i)
					}
				}
			}
			perRow := testing.AllocsPerRun(5, func() { k.run() }) / float64(k.in)
			t.Logf("%.3f allocations per input row", perRow)
			if perRow > allocsPerInputRow {
				t.Errorf("%.3f allocations per input row, over %.2f: the kernel allocates per row", perRow, allocsPerInputRow)
			}
		})
	}
}

// TestAggregateSharesShapes: the group keys of a morsel share the shuffle
// key's shape and the output rows of a bucket the operator's.
func TestAggregateSharesShapes(t *testing.T) {
	records, _ := recordRows(2000)
	o := &Op{groupBy: []GroupKey{Key("year"), Key("record_type")}, aggs: []AggSpec{Agg(AggCount, "", "n"), Agg(AggCollectList, "key", "keys")}}
	sk := groupShuffleKey(o.groupBy)
	keys, err := sk.evalMorsel(records)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Shape() != sk.shape {
			t.Fatalf("group key %s has a shape of its own", k)
		}
	}
	e := &executor{ctx: context.Background()}
	buckets, _, err := e.shuffle(&Dataset{Partitions: [][]Row{records}}, 1, sk, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	shape := groupShape(o.groupBy, o.aggs)
	out, err := aggBucket(o, shape, buckets[0], true)
	if err != nil || out.n != 10 {
		t.Fatalf("%d groups, %v", out.n, err)
	}
	for _, p := range out.rows {
		if p.Value.Shape() != shape {
			t.Fatalf("output row %s has a shape of its own", p.Value)
		}
	}
	if got := out.rows[0].Value.String()[:40]; got != `{year: 2010, record_type: "inproceedings` {
		t.Errorf("first group: %s", got)
	}
}

// TestLeftOuterNullSideSharesShapes: the unmatched rows of a left outer join
// share one shape per left shape, right attributes null.
func TestLeftOuterNullSideSharesShapes(t *testing.T) {
	records, _ := recordRows(300)
	out, err := joinBucket(keyed(t, records, "key"), nil, true, venueShape, true, joinChunkMatches)
	if err != nil || out.n != 300 {
		t.Fatalf("%d rows, %v", out.n, err)
	}
	for _, p := range out.rows {
		if p.Value.Shape() != out.rows[0].Value.Shape() || p.Value.NumFields() != recordShape.Len()+venueShape.Len() {
			t.Fatalf("row %s does not share the shape of row 0", p.Value)
		}
		if v, ok := p.Value.Get("publisher"); !ok || v.Kind() != nested.KindNull {
			t.Fatalf("right side of %s is not null", p.Value)
		}
	}
}

// BenchmarkItemAccess is engine.op_busy_s for every kernel path over the
// benchmark's two carrier shapes at its sizes, one morsel each.
func BenchmarkItemAccess(b *testing.B) {
	nRecords, nTweets := 60000, 8000
	if testing.Short() {
		nRecords, nTweets = 3000, 400
	}
	for _, k := range itemKernels(b, nRecords, nTweets) {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out, err := k.run(); err != nil || out.n == 0 {
					b.Fatalf("%d rows, %v", out.n, err)
				}
			}
		})
	}
}
