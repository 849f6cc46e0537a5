package nested_test

import (
	"bytes"
	"testing"

	"pebble/internal/nested"
	"pebble/internal/workload"
)

// uploads returns the two JSON-lines bodies the mixed_clients benchmark
// workload uploads at the given seed: 4 000 tweets and 20 000 DBLP records.
func uploads(tb testing.TB, seed int64) map[string][]byte {
	out := make(map[string][]byte, 2)
	for name, vals := range map[string][]nested.Value{
		"twitter": workload.GenerateTwitter(workload.Scale{SimGB: 1, TweetsPerGB: 4000, Seed: seed}),
		"dblp":    workload.GenerateDBLP(workload.Scale{SimGB: 1, RecordsPerGB: 20000, Seed: seed}),
	} {
		var buf bytes.Buffer
		if err := nested.EncodeJSONLines(&buf, vals); err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestParseJSONLinesMatchesReferenceOnWorkloads: on the two input shapes of
// the paper's evaluation the reader and the reference return the same rows,
// field by field (SameShape: kinds, number bits, strings, attribute names,
// nil-ness), with equal hashes, and every value slice the reader carved has
// len == cap.
func TestParseJSONLinesMatchesReferenceOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("parses 8 MB twice")
	}
	for name, data := range uploads(t, 7) {
		got, err := nested.ParseJSONLines(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := nested.RefParseJSONLines(data)
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s: reader %d rows, reference %d rows (%v)", name, len(got), len(want), err)
		}
		for i := range got {
			if !nested.SameShape(got[i], want[i]) || got[i].Hash() != want[i].Hash() || !nested.ExactSlices(got[i]) {
				t.Fatalf("%s row %d:\n reader    %s\n reference %s", name, i, got[i], want[i])
			}
		}
	}
}

// TestReaderAllocatesPerDocumentOnUploads: parsing the benchmark's uploads
// costs one allocation per row, the string copy every document with string
// values gets, plus at most half an allocation per row for everything else:
// chunks, shapes, the output slice. One allocation per value, as a string or
// a value slice of its own would be, adds several per row on either upload.
func TestReaderAllocatesPerDocumentOnUploads(t *testing.T) {
	if testing.Short() {
		t.Skip("parses 8 MB four times")
	}
	for name, data := range uploads(t, 42) {
		rows := bytes.Count(data, []byte{'\n'})
		allocs := testing.AllocsPerRun(3, func() {
			if vals, err := nested.ParseJSONLines(data); err != nil || len(vals) != rows {
				t.Fatalf("%s: %d rows, %v", name, len(vals), err)
			}
		})
		perRow := allocs/float64(rows) - 1
		t.Logf("%s: %.0f allocations, %.3f per row beyond the string copy", name, allocs, perRow)
		if perRow > 0.5 {
			t.Errorf("%s: %.3f allocations per row beyond the string copy, over 0.5: the reader allocates per value", name, perRow)
		}
	}
}

// BenchmarkParseJSONLines is the nested.parse_s layer of the mixed_clients
// workload without the daemon around it, reader and reference side by side.
func BenchmarkParseJSONLines(b *testing.B) {
	data := uploads(b, 42)
	for _, name := range []string{"twitter", "dblp"} {
		for _, impl := range []struct {
			name  string
			parse func([]byte) ([]nested.Value, error)
		}{{"reader", nested.ParseJSONLines}, {"reference", nested.RefParseJSONLines}} {
			b.Run(name+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(data[name])))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := impl.parse(data[name]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
