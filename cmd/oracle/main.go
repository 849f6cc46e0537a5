// Command oracle soak-tests the provenance stack: it generates corpus
// pipelines from consecutive seeds and runs the full differential check —
// four capture modes × the configured worker counts — until the time budget
// is spent or a disagreement is found. On disagreement it shrinks the spec
// to a minimal reproducer, writes it under -out, prints it to stderr, and
// exits non-zero.
//
// Usage:
//
//	go run ./cmd/oracle -duration 60s -seed 1 -workers 1,2,4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pebble/internal/corpus"
	"pebble/internal/oracle"
)

func main() {
	duration := flag.Duration("duration", 60*time.Second, "how long to keep checking pipelines")
	seed := flag.Int64("seed", 1, "first corpus seed; consecutive seeds follow")
	workers := flag.String("workers", "", "comma-separated worker counts to cross-check (default 1,2,NumCPU)")
	partitions := flag.Int("partitions", 4, "logical partition count (fixed across compared runs)")
	out := flag.String("out", "internal/oracle/testdata", "directory for shrunk reproducers")
	flag.Parse()

	cfg := oracle.Config{Partitions: *partitions}
	if *workers != "" {
		for _, tok := range strings.Split(*workers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "oracle: bad -workers entry %q\n", tok)
				os.Exit(2)
			}
			cfg.Workers = append(cfg.Workers, w)
		}
	} else {
		cfg.Workers = oracle.DefaultWorkers()
	}

	fmt.Printf("soak: duration=%s seed=%d workers=%v partitions=%d\n",
		*duration, *seed, cfg.Workers, *partitions)
	start := time.Now()
	deadline := start.Add(*duration)
	checked := 0
	for s := *seed; time.Now().Before(deadline); s++ {
		spec := corpus.Generate(s)
		if d := oracle.CheckSpec(spec, cfg); d != nil {
			fmt.Fprintf(os.Stderr, "DISAGREEMENT after %d pipelines: %v\n", checked, d)
			shrunk, sd := oracle.Shrink(spec, cfg)
			if sd != nil {
				path, data, err := oracle.WriteRepro(*out, shrunk, sd)
				if err != nil {
					// Exit distinctly: the disagreement is real but the
					// reproducer was lost, so the run is not replayable.
					fmt.Fprintf(os.Stderr, "writing reproducer: %v\n", err)
					os.Exit(3)
				}
				// The file may live on a machine that is thrown away (a CI
				// runner), so the log carries the reproducer itself too.
				fmt.Fprintf(os.Stderr, "shrunk to %d operators / %d rows; reproducer: %s\n%s",
					shrunk.NumOps(), len(shrunk.Rows), path, data)
			}
			os.Exit(1)
		}
		checked++
	}
	elapsed := time.Since(start)
	fmt.Printf("soak: %d pipelines, 0 disagreements in %s (%.1f pipelines/sec)\n",
		checked, elapsed.Round(time.Millisecond), float64(checked)/elapsed.Seconds())
}
