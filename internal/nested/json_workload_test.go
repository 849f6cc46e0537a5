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
// the paper's evaluation the reader and the reference return equal rows with
// equal hashes.
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
			if !nested.Equal(got[i], want[i]) || got[i].Hash() != want[i].Hash() {
				t.Fatalf("%s row %d:\n reader    %s\n reference %s", name, i, got[i], want[i])
			}
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
