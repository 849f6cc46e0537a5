package pebble_test

import (
	"bytes"
	"strings"
	"testing"

	"pebble"
)

// tab1 builds the running example's input through the public API only.
func tab1() []pebble.Value {
	tweet := func(text, uid, uname string, rt int64, mentions ...[2]string) pebble.Value {
		ms := make([]pebble.Value, len(mentions))
		for i, m := range mentions {
			ms[i] = pebble.Item(pebble.F("id_str", pebble.String(m[0])), pebble.F("name", pebble.String(m[1])))
		}
		return pebble.Item(
			pebble.F("text", pebble.String(text)),
			pebble.F("user", pebble.Item(pebble.F("id_str", pebble.String(uid)), pebble.F("name", pebble.String(uname)))),
			pebble.F("user_mentions", pebble.Bag(ms...)),
			pebble.F("retweet_cnt", pebble.Int(rt)),
		)
	}
	return []pebble.Value{
		tweet("Hello @ls @jm @ls", "lp", "Lisa Paul", 0,
			[2]string{"ls", "Lauren Smith"}, [2]string{"jm", "John Miller"}, [2]string{"ls", "Lauren Smith"}),
		tweet("Hello World", "lp", "Lisa Paul", 0),
		tweet("Hello World", "lp", "Lisa Paul", 0),
		tweet("This is me @jm", "jm", "John Miller", 0, [2]string{"jm", "John Miller"}),
		tweet("Hello @lp", "jm", "John Miller", 1, [2]string{"lp", "Lisa Paul"}),
	}
}

// figure1 builds the Fig. 1 pipeline through the public API only.
func figure1() *pebble.Pipeline {
	p := pebble.NewPipeline()
	read1 := p.Source("tweets.json")
	filt := p.Filter(read1, pebble.Eq(pebble.Col("retweet_cnt"), pebble.LitInt(0)))
	sel1 := p.Select(filt,
		pebble.Column("text", "text"),
		pebble.Column("id_str", "user.id_str"),
		pebble.Column("name", "user.name"),
	)
	read2 := p.Source("tweets.json")
	flat := p.Flatten(read2, "user_mentions", "m_user")
	sel2 := p.Select(flat,
		pebble.Column("text", "text"),
		pebble.Column("id_str", "m_user.id_str"),
		pebble.Column("name", "m_user.name"),
	)
	uni := p.Union(sel1, sel2)
	sel3 := p.Select(uni,
		pebble.StructField("tweet", pebble.Column("text", "text")),
		pebble.StructField("user", pebble.Column("id_str", "id_str"), pebble.Column("name", "name")),
	)
	p.Aggregate(sel3,
		[]pebble.GroupKey{pebble.Key("user")},
		[]pebble.AggSpec{pebble.Agg(pebble.AggCollectList, "tweet", "tweets")},
	)
	return p
}

// TestPublicAPIEndToEnd exercises the README quickstart: run the running
// example with capture and answer the Sec. 2 provenance question.
func TestPublicAPIEndToEnd(t *testing.T) {
	inputs := map[string]*pebble.Dataset{
		"tweets.json": pebble.NewDataset("tweets.json", tab1(), 2),
	}
	session := pebble.Session{Partitions: 2}
	cap, err := session.Capture(figure1(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	pattern := pebble.NewPattern(
		pebble.Desc("id_str").WithEq(pebble.String("lp")),
		pebble.Child("tweets",
			pebble.Child("text").WithEq(pebble.String("Hello World")).WithCount(2, 2),
		),
	)
	q, err := cap.Query(pattern)
	if err != nil {
		t.Fatal(err)
	}
	items := q.Items()
	if len(items) != 2 {
		t.Fatalf("traced %d items, want the two Hello World tweets", len(items))
	}
	report := q.Report()
	for _, want := range []string{"Hello World", "contributing", "influencing"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPublicJSONHelpers(t *testing.T) {
	v, err := pebble.ParseJSON([]byte(`{"b": 1, "a": [true, null]}`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Shape().Names()[0] != "b" {
		t.Error("attribute order lost")
	}
	var buf bytes.Buffer
	if err := pebble.EncodeJSONLines(&buf, []pebble.Value{v}); err != nil {
		t.Fatal(err)
	}
	back, err := pebble.ParseJSONLines(buf.Bytes())
	if err != nil || len(back) != 1 || !pebble.Equal(v, back[0]) {
		t.Errorf("JSON round trip failed: %v %v", back, err)
	}
}

func TestPublicValueConstructors(t *testing.T) {
	if pebble.Int(1).Kind() != pebble.KindInt ||
		pebble.Double(1).Kind() != pebble.KindDouble ||
		pebble.String("").Kind() != pebble.KindString ||
		pebble.Bool(true).Kind() != pebble.KindBool ||
		pebble.Null().Kind() != pebble.KindNull ||
		pebble.Bag().Kind() != pebble.KindBag ||
		pebble.Set().Kind() != pebble.KindSet ||
		pebble.Item().Kind() != pebble.KindItem {
		t.Error("constructor kinds wrong")
	}
	if pebble.Set(pebble.Int(1), pebble.Int(1)).Len() != 1 {
		t.Error("set must deduplicate")
	}
}

func TestTreeFromValuePublic(t *testing.T) {
	v := pebble.Item(pebble.F("a", pebble.Bag(pebble.Int(1), pebble.Int(2))))
	tr := pebble.TreeFromValue(v)
	if len(tr.Root.Children) == 0 {
		t.Error("full tree should not be empty")
	}
	b := pebble.NewStructure()
	b.Add(1, tr)
	if b.Len() != 1 {
		t.Error("structure add failed")
	}
}
