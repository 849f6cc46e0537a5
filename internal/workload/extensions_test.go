package workload_test

import (
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

// extensionScenarios returns scenarios beyond the paper's Tab. 7 that
// exercise the extension operators (distinct, orderBy, limit, left outer
// join) under capture and backtracing. They are not part of AllScenarios —
// the paper's evaluation stays the ten originals — but share the same
// generators and query machinery.
func extensionScenarios() []workload.Scenario {
	return []workload.Scenario{
		{
			Name:        "X1",
			Description: "top-5 most mentioned users (flatten, count, orderBy desc, limit)",
			Dataset:     "twitter",
			Build:       buildX1,
			Pattern: treepattern.New(
				treepattern.Child("mid").WithEq(nested.StringVal(workload.HotUserID)),
				treepattern.Child("mentions"),
			),
		},
		{
			Name:        "X2",
			Description: "proceedings with their distinct inproceedings counts, including proceedings without any (left outer join)",
			Dataset:     "dblp",
			Build:       buildX2,
			Pattern: treepattern.New(
				treepattern.Child("pkey").WithEq(nested.StringVal(workload.HotProceedingKey)),
				treepattern.Child("n_papers"),
			),
		},
	}
}

// buildX1: every 7th tweet mentions the hot user, so it always tops the
// ranking and the pattern query has a stable target.
func buildX1() *engine.Pipeline {
	p := engine.NewPipeline()
	read := p.Source("tweets.json")
	flat := p.Flatten(read, "user_mentions", "m_user")
	sel := p.Select(flat,
		engine.Column("mid", "m_user.id_str"),
		engine.Column("mname", "m_user.name"),
	)
	agg := p.Aggregate(sel,
		[]engine.GroupKey{engine.Key("mid"), engine.Key("mname")},
		[]engine.AggSpec{engine.Agg(engine.AggCount, "mid", "mentions")},
	)
	ord := p.OrderBy(agg, true, engine.Col("mentions"))
	p.Limit(ord, 5)
	return p
}

// buildX2: a left outer join keeps proceedings that no inproceedings ever
// crossrefs (their n_papers is null) — the completeness check an auditor
// runs before trusting D4's per-proceedings nesting.
func buildX2() *engine.Pipeline {
	p := engine.NewPipeline()
	readP := p.Source("dblp.json")
	procs := p.Filter(readP, engine.Eq(engine.Col("record_type"), engine.LitString("proceedings")))
	selP := p.Select(procs,
		engine.Column("pkey", "key"),
		engine.Column("ptitle", "title"),
	)
	readI := p.Source("dblp.json")
	inproc := p.Filter(readI, engine.Eq(engine.Col("record_type"), engine.LitString("inproceedings")))
	distinctI := p.Distinct(p.Select(inproc,
		engine.Column("ikey", "key"),
		engine.Column("cref", "crossref"),
	))
	counts := p.Aggregate(distinctI,
		[]engine.GroupKey{engine.Key("cref")},
		[]engine.AggSpec{engine.Agg(engine.AggCount, "ikey", "n_papers")},
	)
	p.LeftJoin(selP, counts, engine.Col("pkey"), engine.Col("cref"))
	return p
}
