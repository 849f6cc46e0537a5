// Command pebble runs one of the paper's evaluation scenarios (T1–T5,
// D1–D5) over synthetic data, optionally capturing structural provenance and
// answering the scenario's provenance question.
//
// Usage:
//
//	pebble -scenario T3 [-gb 1] [-partitions 4] [-capture] [-query] [-show-plan]
//
// With -capture the pipeline is executed under structural provenance
// capture; with -query (implies -capture) the scenario's tree-pattern is
// matched on the result and backtraced, printing the provenance report.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "T3", "scenario name: T1-T5 or D1-D5")
	gb := flag.Int("gb", 1, "simulated input size in GB")
	tweetsPerGB := flag.Int("tweets-per-gb", 200, "tweets per simulated GB")
	recordsPerGB := flag.Int("records-per-gb", 2000, "DBLP records per simulated GB")
	partitions := flag.Int("partitions", 4, "engine partitions")
	capture := flag.Bool("capture", false, "capture structural provenance")
	query := flag.Bool("query", false, "answer the scenario's provenance question (implies -capture)")
	patternStr := flag.String("pattern", "", "custom tree-pattern question (overrides the scenario's), e.g. '//id_str == \"hotuser\"'")
	saveProv := flag.String("save-prov", "", "persist the captured provenance to this file")
	inputFile := flag.String("input", "", "JSONL file replacing the generated dataset (schema must match the scenario; see cmd/datagen)")
	showPlan := flag.Bool("show-plan", false, "print the pipeline plan")
	analyze := flag.Bool("analyze", false, "type-check the plan and print per-operator schemas")
	list := flag.Bool("list", false, "list scenarios and exit")
	flag.Parse()

	if *list {
		for _, sc := range workload.AllScenarios() {
			fmt.Printf("%-3s %-8s %s\n", sc.Name, sc.Dataset, sc.Description)
		}
		return
	}
	sc, err := workload.ByName(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale := workload.Scale{SimGB: *gb, TweetsPerGB: *tweetsPerGB, RecordsPerGB: *recordsPerGB, Seed: 42}
	inputs := sc.Input(scale, *partitions)
	if *inputFile != "" {
		data, err := os.ReadFile(*inputFile)
		if err != nil {
			log.Fatal(err)
		}
		values, err := nested.ParseJSONLines(data)
		if err != nil {
			log.Fatal(err)
		}
		name := "tweets.json"
		if sc.Dataset == "dblp" {
			name = "dblp.json"
		}
		inputs = map[string]*engine.Dataset{
			name: engine.NewDataset(name, values, *partitions, engine.NewIDGen(1)),
		}
		fmt.Printf("loaded %d items from %s\n", len(values), *inputFile)
	}
	pipe := sc.Build()
	if *showPlan {
		fmt.Printf("plan:\n%s\n\n", pipe)
	}
	if *analyze {
		schemas, err := engine.Analyze(pipe, engine.InferInputTypes(inputs))
		if err != nil {
			log.Fatalf("analysis failed: %v", err)
		}
		fmt.Println("analysis: plan is well-typed; operator output schemas:")
		for _, op := range pipe.Ops() {
			if t, ok := schemas[op.ID()]; ok {
				fmt.Printf("  %-3d %s\n", op.ID(), t)
			}
		}
		fmt.Println()
	}
	session := core.NewSession(core.WithPartitions(*partitions))

	if !*capture && !*query && *patternStr == "" && *saveProv == "" {
		res, err := session.Run(pipe, inputs)
		if err != nil {
			log.Fatal(err)
		}
		printStats(res)
		return
	}
	cap, err := session.Capture(pipe, inputs)
	if err != nil {
		log.Fatal(err)
	}
	printStats(cap.Result)
	sizes := cap.Provenance.Sizes()
	fmt.Printf("provenance stream: lineage %d B + structural extra %d B + framing %d B\n",
		sizes.LineageBytes, sizes.StructuralExtra, sizes.Framing)
	if *saveProv != "" {
		f, err := os.Create(*saveProv)
		if err != nil {
			log.Fatal(err)
		}
		n, err := cap.Provenance.WriteTo(f)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("provenance persisted to %s (%d bytes)\n", *saveProv, n)
	}
	if !*query && *patternStr == "" {
		return
	}
	pattern := sc.Pattern
	if *patternStr != "" {
		parsed, err := treepattern.Parse(*patternStr)
		if err != nil {
			log.Fatal(err)
		}
		pattern = parsed
	}
	fmt.Printf("\nprovenance question:%s\n\n", pattern)
	q, err := cap.Query(pattern)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(q.Report())
}

func printStats(res *engine.Result) {
	fmt.Print(res.Explain())
}
