package provenance_test

import (
	"bytes"
	"testing"

	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// BenchmarkCodec measures what codec v4 costs against v3 and v2 on the
// captures of the two capture workloads at the client benchmark's sizes —
// T2, the flattens' scenario, and T5 (twitter_capture, 8 000 tweets), and D4
// (dblp_capture, 60 000 records); -short: a twentieth. Per version: encode
// (the capture's encoder over the decoded bags for v4, the reference encoders
// for v3 and v2), the validating scan of a load (ReadRunLazy) and the full
// decode (ReadRun), each reporting B/row, the stream's bytes per association
// row.
func BenchmarkCodec(b *testing.B) {
	tweets, records := 8000, 60000
	if testing.Short() {
		tweets, records = 400, 3000
	}
	for _, name := range []string{"T2", "T5", "D4"} {
		b.Run(name, func(b *testing.B) {
			sc, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			scale := workload.Scale{SimGB: 1, TweetsPerGB: tweets, RecordsPerGB: records, Seed: 42}
			_, run, err := provenance.Capture(sc.Build(), sc.Input(scale, engine.DefaultPartitions), engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			for _, op := range run.Operators() {
				rows += op.AssocCount()
			}
			for _, v := range []struct {
				name   string
				encode func(*provenance.Run) []byte
			}{{"v2", provenance.RefEncodeV2}, {"v3", provenance.RefEncodeV3}, {"v4", provenance.EncodeV4}} {
				stream := v.encode(run)
				perRow := float64(len(stream)) / float64(rows)
				for _, step := range []struct {
					name string
					do   func() error
				}{
					{"encode", func() error { v.encode(run); return nil }},
					{"scan", func() error { _, err := provenance.ReadRunLazy(stream); return err }},
					{"decode", func() error { _, err := provenance.ReadRun(bytes.NewReader(stream)); return err }},
				} {
					b.Run(v.name+"/"+step.name, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							if err := step.do(); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(perRow, "B/row")
					})
				}
			}
		})
	}
}
