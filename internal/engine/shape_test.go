package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// This file pins what the shape-shared value model buys the engine: rows
// stay small, every operator hands one shape to all the rows a partition
// produces, and producing a row allocates nothing of its own. The benchmark
// at the end is the engine's item-access layer without the daemon around it.

func TestRowLayout(t *testing.T) {
	if size := unsafe.Sizeof(Row{}); size > 72 {
		t.Errorf("Row is %d bytes, want at most 72", size)
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
	buckets, err := e.shuffle(&Dataset{Partitions: [][]Row{rows}}, 1, exprShuffleKey(Col(key)), 1, false)
	if err != nil {
		tb.Fatal(err)
	}
	return buckets[0]
}

// itemKernel is one engine kernel over one input, named for the benchmark.
type itemKernel struct {
	name string
	run  func() (morselOut, error)
}

// itemKernels returns the filter, select, flatten and join-stitch kernels
// over nRecords DBLP-shaped and nTweets tweet-shaped rows.
func itemKernels(tb testing.TB, nRecords, nTweets int) []itemKernel {
	records, venues := recordRows(nRecords)
	tweets, profiles := tweetRows(nTweets)
	recordSel := []SelectField{Column("key", "key"), Column("title", "title"), Column("year", "year")}
	tweetSel := []SelectField{Column("text", "text"), StructField("who", Column("id", "user.id_str"), Column("seq", "meta.seq")), Column("n", "retweet_cnt")}
	recordSS, tweetSS := newSelectShape(recordSel), newSelectShape(tweetSel)
	recordKeys, venueKeys := keyed(tb, records, "crossref"), keyed(tb, venues, "vkey")
	tweetKeys, profileKeys := keyed(tb, tweets, "user.id_str"), keyed(tb, profiles, "uid")
	d := ownedDst()
	return []itemKernel{
		{"dblp/filter", func() (morselOut, error) { return filterMorsel(Eq(Col("year"), LitInt(2015)), records, d) }},
		{"dblp/select", func() (morselOut, error) { return selectMorsel(recordSel, recordSS, records, d) }},
		{"dblp/flatten", func() (morselOut, error) { return flattenMorsel(path.New("authors"), "author", records, d, false) }},
		{"dblp/join", func() (morselOut, error) { return joinBucket(venueKeys, recordKeys, false, recordShape, true) }},
		{"twitter/filter", func() (morselOut, error) { return filterMorsel(Gt(Col("retweet_cnt"), LitInt(2)), tweets, d) }},
		{"twitter/select", func() (morselOut, error) { return selectMorsel(tweetSel, tweetSS, tweets, d) }},
		{"twitter/flatten", func() (morselOut, error) {
			return flattenMorsel(path.New("user_mentions"), "mention", tweets, d, false)
		}},
		{"twitter/join", func() (morselOut, error) { return joinBucket(profileKeys, tweetKeys, false, tweetShape, true) }},
	}
}

// TestKernelsShareShapesAndAllocatePerMorsel: at one input shape every
// output row of a select, flatten or join morsel points to the same Shape
// (nested output items to theirs), and the morsel allocates its output
// slice, its value arena and its shapes — nothing per row.
func TestKernelsShareShapesAndAllocatePerMorsel(t *testing.T) {
	for _, k := range itemKernels(t, 3000, 400) {
		out, err := k.run()
		if err != nil || out.n < 100 {
			t.Fatalf("%s: %d rows, %v", k.name, out.n, err)
		}
		first := out.rows[0].Value
		for i, p := range out.rows {
			if p.Value.Shape() != first.Shape() {
				t.Fatalf("%s: row %d does not share the shape of row 0: %s", k.name, i, p.Value)
			}
			if who, ok := p.Value.Get("who"); ok {
				if w0, _ := first.Get("who"); who.Shape() != w0.Shape() {
					t.Fatalf("%s: row %d: nested item does not share its shape", k.name, i)
				}
			}
		}
		if strings.HasSuffix(k.name, "/filter") {
			continue // passes its input rows on, and allocates per 256-row batch
		}
		// Output slice, arena, the shapes a memo derives and the kernel's
		// working arrays: a handful per morsel, where one allocation per row
		// would be len(out).
		if allocs := testing.AllocsPerRun(5, func() { k.run() }); allocs > float64(out.n)/10 {
			t.Errorf("%s: %v allocations for %d output rows", k.name, allocs, out.n)
		}
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
	buckets, err := e.shuffle(&Dataset{Partitions: [][]Row{records}}, 1, sk, 1, true)
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
	out, err := joinBucket(keyed(t, records, "key"), nil, true, venueShape, true)
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

// BenchmarkItemAccess is engine.op_busy_s for filter, select, flatten and
// join over the benchmark's two carrier shapes at its sizes, one morsel each.
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
