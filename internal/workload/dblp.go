package workload

import (
	"fmt"
	"math/rand"

	"pebble/internal/engine"
	"pebble/internal/nested"
)

// Sentinels the DBLP generator plants deterministically.
const (
	// HotProceedingKey is a proceedings record that many inproceedings
	// crossref (scenario D1/D4/D5 queries).
	HotProceedingKey = "conf/pebble/2015"
	// HotAuthorID is an author that publishes under several alias spellings
	// (scenario D3 queries).
	HotAuthorID = "a00000"
)

// dblpRecordTypes and their approximate mix. The real dblp.xml has ten
// record types; the evaluation scenarios touch articles, inproceedings and
// proceedings, so those dominate the mix like they do in the original.
var dblpTypeMix = []struct {
	rtype  string
	weight int
}{
	{"inproceedings", 45},
	{"article", 30},
	{"proceedings", 10},
	{"www", 6},
	{"incollection", 4},
	{"phdthesis", 2},
	{"mastersthesis", 1},
	{"book", 2},
}

var dblpTitleWords = []string{
	"Provenance", "Nested", "Structural", "Scalable", "Tracing", "Query",
	"Processing", "Distributed", "Data", "Systems", "Efficient", "Adaptive",
	"Streams", "Graphs", "Learning", "Indexes",
}

var dblpVenues = []string{"EDBT", "VLDB", "SIGMOD", "ICDE", "CIKM", "BTW"}

var dblpAuthorAliases = [][]string{
	{"Ralf Diest", "R. Diest"},
	{"Melanie Hersch", "M. Hersch"},
	{"Lauren Smith", "L. Smith"},
	{"John Miller", "J. Miller", "Jon Miller"},
	{"Ada Chen", "A. Chen"},
	{"Omar Khan", "O. Khan"},
	{"Ines Rossi", "I. Rossi"},
	{"Sven Larsen", "S. Larsen"},
}

// dblpAuthor is one author of the deterministic pool: a stable id plus alias
// spellings (real DBLP disambiguates authors whose names are spelled
// differently across records — scenario D3 collects those aliases).
type dblpAuthor struct {
	id      string
	aliases []string
}

func dblpAuthorPool(r *rand.Rand, n int) []dblpAuthor {
	pool := make([]dblpAuthor, 0, n)
	for i := 0; i < n; i++ {
		base := dblpAuthorAliases[i%len(dblpAuthorAliases)]
		aliases := make([]string, len(base))
		for j, a := range base {
			aliases[j] = fmt.Sprintf("%s %03d", a, i/len(dblpAuthorAliases))
		}
		pool = append(pool, dblpAuthor{id: fmt.Sprintf("a%05d", i), aliases: aliases})
	}
	// Author 0 keeps the sentinel id.
	pool[0].id = HotAuthorID
	return pool
}

// GenerateDBLP builds the DBLP dataset at the given scale: one record per
// top-level item with a record_type attribute, narrow schemas (<50
// attributes, Sec. 7.3.2) and preserved characteristics such as the average
// number of inproceedings per proceedings record. Deterministic in the seed.
func GenerateDBLP(s Scale) []nested.Value {
	s = s.withDefaults()
	r := rand.New(rand.NewSource(s.Seed + 1))
	n := s.Records()
	authors := dblpAuthorPool(r, max(8, n/30))

	// Proceedings keys are generated first so inproceedings can crossref
	// them; roughly 10% of records are proceedings.
	nProcs := max(1, n/10)
	procKeys := make([]string, nProcs)
	procKeys[0] = HotProceedingKey
	for i := 1; i < nProcs; i++ {
		procKeys[i] = fmt.Sprintf("conf/%s/%d-%d",
			dblpVenues[r.Intn(len(dblpVenues))], 2010+r.Intn(10), i)
	}

	var totalWeight int
	for _, m := range dblpTypeMix {
		totalWeight += m.weight
	}
	out := make([]nested.Value, 0, n)
	procIdx := 0
	for i := 0; i < n; i++ {
		w := r.Intn(totalWeight)
		rtype := dblpTypeMix[len(dblpTypeMix)-1].rtype
		for _, m := range dblpTypeMix {
			if w < m.weight {
				rtype = m.rtype
				break
			}
			w -= m.weight
		}
		// Emit each proceedings record exactly once.
		if rtype == "proceedings" && procIdx >= nProcs {
			rtype = "inproceedings"
		}
		switch rtype {
		case "proceedings":
			out = append(out, genProceedings(r, procKeys[procIdx]))
			procIdx++
		case "inproceedings":
			out = append(out, genInproceedings(r, i, authors, procKeys))
		case "article":
			out = append(out, genArticle(r, i, authors))
		default:
			out = append(out, genMiscRecord(r, i, rtype, authors))
		}
	}
	// Emit any proceedings the mix did not reach, preserving the average
	// inproceedings-per-proceedings characteristic.
	for ; procIdx < nProcs; procIdx++ {
		out = append(out, genProceedings(r, procKeys[procIdx]))
	}
	return out
}

// The shapes of the generated items, one per record kind.
var (
	authorShape        = nested.NewShape("id", "name")
	inproceedingsShape = nested.NewShape("key", "record_type", "title", "authors", "year", "crossref", "pages", "ee")
	proceedingsShape   = nested.NewShape("key", "record_type", "title", "booktitle", "year", "publisher")
	articleShape       = nested.NewShape("key", "record_type", "title", "authors", "year", "journal", "volume")
	miscShape          = nested.NewShape("key", "record_type", "title", "authors", "year")
)

func dblpTitle(r *rand.Rand) string {
	n := 3 + r.Intn(4)
	title := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			title += " "
		}
		title += dblpTitleWords[r.Intn(len(dblpTitleWords))]
	}
	return title
}

func authorBag(r *rand.Rand, authors []dblpAuthor, n int, forceHot bool) nested.Value {
	items := make([]nested.Value, 0, n)
	seen := map[string]bool{}
	if forceHot {
		a := authors[0]
		items = append(items, authorShape.Item(nested.StringVal(a.id), nested.StringVal(a.aliases[r.Intn(len(a.aliases))])))
		seen[a.id] = true
	}
	for len(items) < n {
		a := authors[r.Intn(len(authors))]
		if seen[a.id] {
			continue
		}
		seen[a.id] = true
		items = append(items, authorShape.Item(nested.StringVal(a.id), nested.StringVal(a.aliases[r.Intn(len(a.aliases))])))
	}
	return nested.Bag(items...)
}

func genInproceedings(r *rand.Rand, seq int, authors []dblpAuthor, procKeys []string) nested.Value {
	crossref := procKeys[r.Intn(len(procKeys))]
	// Every 9th inproceedings belongs to the hot proceedings and year 2015.
	year := int64(2010 + r.Intn(10))
	if seq%9 == 0 {
		crossref = HotProceedingKey
		year = 2015
	}
	return inproceedingsShape.Item(
		nested.StringVal(fmt.Sprintf("conf/p%d", seq)),
		nested.StringVal("inproceedings"),
		nested.StringVal(dblpTitle(r)),
		authorBag(r, authors, 1+r.Intn(4), seq%12 == 0),
		nested.Int(year),
		nested.StringVal(crossref),
		nested.StringVal(fmt.Sprintf("%d-%d", r.Intn(400), r.Intn(400)+400)),
		nested.StringVal(fmt.Sprintf("https://doi.example/%d", seq)),
	)
}

func genProceedings(r *rand.Rand, key string) nested.Value {
	year := int64(2010 + r.Intn(10))
	if key == HotProceedingKey {
		year = 2015
	}
	return proceedingsShape.Item(
		nested.StringVal(key),
		nested.StringVal("proceedings"),
		nested.StringVal("Proceedings of "+dblpTitle(r)),
		nested.StringVal(dblpVenues[r.Intn(len(dblpVenues))]),
		nested.Int(year),
		nested.StringVal("OpenProceedings"),
	)
}

func genArticle(r *rand.Rand, seq int, authors []dblpAuthor) nested.Value {
	year := int64(2005 + r.Intn(15))
	if seq%11 == 0 {
		year = 2015
	}
	return articleShape.Item(
		nested.StringVal(fmt.Sprintf("journals/a%d", seq)),
		nested.StringVal("article"),
		nested.StringVal(dblpTitle(r)),
		authorBag(r, authors, 1+r.Intn(3), seq%12 == 0),
		nested.Int(year),
		nested.StringVal("J. "+dblpTitleWords[r.Intn(len(dblpTitleWords))]),
		nested.Int(int64(1+r.Intn(40))),
	)
}

func genMiscRecord(r *rand.Rand, seq int, rtype string, authors []dblpAuthor) nested.Value {
	return miscShape.Item(
		nested.StringVal(fmt.Sprintf("%s/m%d", rtype, seq)),
		nested.StringVal(rtype),
		nested.StringVal(dblpTitle(r)),
		authorBag(r, authors, 1, false),
		nested.Int(int64(2000+r.Intn(20))),
	)
}

// DBLPInput wraps the generated records as the named input the DBLP
// scenarios read ("dblp.json"), partitioned for the engine.
func DBLPInput(s Scale, partitions int) map[string]*engine.Dataset {
	gen := engine.NewIDGen(1)
	return map[string]*engine.Dataset{
		"dblp.json": engine.NewDataset("dblp.json", GenerateDBLP(s), partitions, gen),
	}
}
