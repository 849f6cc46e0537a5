// Package shell implements an interactive provenance explorer — the
// user-friendly front-end the paper lists as future work. A session wraps a
// captured pipeline run; the REPL accepts textual tree-pattern questions
// (treepattern.Parse syntax) and a handful of commands to inspect the plan,
// the result, the captured provenance, and forward impact.
package shell

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/obs"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
)

// Shell drives one interactive session over a captured run.
type Shell struct {
	cap *core.Captured
	out io.Writer
}

// New returns a shell over the captured run, writing to out.
func New(cap *core.Captured, out io.Writer) *Shell {
	return &Shell{cap: cap, out: out}
}

// Run reads commands from in until EOF or "quit". Every non-command line is
// parsed as a tree-pattern question and answered with a provenance report.
func (s *Shell) Run(in io.Reader) error {
	fmt.Fprintln(s.out, `pebble provenance shell — enter a tree-pattern (e.g. //id_str == "lp"),`)
	fmt.Fprintln(s.out, `or a command: help, plan, schema, result [n], provenance, stats, explain, save <path>, load <path>, impact <source-oid> <id>, quit`)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(s.out, "> ")
		if !scanner.Scan() {
			fmt.Fprintln(s.out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := s.dispatch(line); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
	}
}

func (s *Shell) dispatch(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "help":
		s.help()
		return nil
	case "plan":
		fmt.Fprintln(s.out, s.cap.Pipeline.String())
		return nil
	case "result":
		n := 10
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				return fmt.Errorf("result wants a positive row count, got %q", fields[1])
			}
			n = v
		}
		s.printResult(n)
		return nil
	case "provenance":
		s.printProvenance()
		return nil
	case "stats", ":stats":
		fmt.Fprint(s.out, s.cap.Stats().Render(true))
		return nil
	case "explain":
		fmt.Fprint(s.out, s.cap.Result.Explain())
		return nil
	case "schema":
		return s.printSchemas()
	case "json":
		rest := strings.TrimSpace(strings.TrimPrefix(line, "json"))
		if rest == "" {
			return fmt.Errorf("usage: json <tree-pattern>")
		}
		pattern, err := treepattern.Parse(rest)
		if err != nil {
			return err
		}
		q, err := s.cap.Query(pattern)
		if err != nil {
			return err
		}
		data, err := q.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, string(data))
		return nil
	case "save":
		if len(fields) != 2 {
			return fmt.Errorf("usage: save <path>")
		}
		return s.save(fields[1])
	case "load":
		if len(fields) != 2 {
			return fmt.Errorf("usage: load <path>")
		}
		return s.load(fields[1])
	case "impact":
		if len(fields) != 3 {
			return fmt.Errorf("usage: impact <source-oid> <input-id>")
		}
		oid, err1 := strconv.Atoi(fields[1])
		id, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("impact wants numeric arguments")
		}
		return s.impact(oid, id)
	default:
		return s.query(line)
	}
}

func (s *Shell) help() {
	fmt.Fprintln(s.out, `commands:
  help                     this help
  plan                     print the pipeline plan
  schema                   print per-operator output schemas
  json <pattern>           answer a pattern question as JSON
  result [n]               print the first n result rows (default 10)
  provenance               the stream's byte split, and per operator its
                           association count and encoded bytes
  stats                    per-operator execution metrics and query timings
                           (incl. run_load / index_build / pattern_compile phases)
  explain                  per operator: the stage that ran it, its rows and
                           its own time (operators of one stage ran
                           morsel-at-a-time as one unit)
  save <path>              write the captured provenance to <path>
  load <path>              reload provenance from <path> lazily (its columns
                           are its indexes)
  impact <src-oid> <id>    forward-trace one input item to the results
  quit                     leave the shell
anything else is parsed as a tree-pattern provenance question, e.g.
  //id_str == "lp", tweets(text == "Hello World" #[2,2])`)
}

func (s *Shell) printResult(n int) {
	rows := s.cap.Result.Output.Rows()
	for i, r := range rows {
		if i >= n {
			fmt.Fprintf(s.out, "... (%d more rows)\n", len(rows)-n)
			return
		}
		fmt.Fprintf(s.out, "[id %d] %s\n", r.ID, r.Value)
	}
}

func (s *Shell) printProvenance() {
	sizes := s.cap.Provenance.Sizes()
	fmt.Fprintf(s.out, "provenance stream: lineage %dB + structural extra %dB + framing %dB\n",
		sizes.LineageBytes, sizes.StructuralExtra, sizes.Framing)
	for _, op := range s.cap.Provenance.Operators() {
		fmt.Fprintf(s.out, "  P%-3d %-10s assocs=%d bytes=%d\n", op.OID, op.Type(), op.AssocCount(), op.EncodedBytes())
	}
}

// save persists the captured provenance to path: the run's stream, captured
// or loaded, which is all a later load reads.
func (s *Shell) save(path string) error {
	var buf bytes.Buffer
	if _, err := s.cap.Provenance.WriteTo(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved provenance (%d B) to %s\n", buf.Len(), path)
	return nil
}

// load reloads persisted provenance lazily — an operator's columns decode on
// the first trace through it and are its index — and makes the session's
// capture a fresh one over the reloaded run (the daemon's core.Reattached),
// so later queries run against it.
func (s *Shell) load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec := s.cap.Recorder()
	loaded := rec.StartSpan(obs.SpanRunLoad)
	run, err := provenance.ReadRunLazy(data)
	loaded()
	if err != nil {
		return err
	}
	s.cap = core.Reattached(s.cap.Pipeline, s.cap.Result, run, nil, rec)
	fmt.Fprintf(s.out, "loaded provenance from %s: %d operator(s), %d association bytes deferred\n",
		path, len(run.Operators()), run.AssocBytesTotal())
	return nil
}

func (s *Shell) impact(oid int, id int64) error {
	fwd, err := backtrace.TraceForward(s.cap.Provenance, oid, []int64{id})
	if err != nil {
		return err
	}
	affected := fwd.AffectedIDs(s.cap.Pipeline.Sink().ID())
	if len(affected) == 0 {
		fmt.Fprintf(s.out, "input %d/%d affects no result items\n", oid, id)
		return nil
	}
	fmt.Fprintf(s.out, "input %d/%d affects %d result item(s):\n", oid, id, len(affected))
	for _, rid := range affected {
		if row, ok := s.cap.Result.Output.FindByID(rid); ok {
			fmt.Fprintf(s.out, "  [id %d] %s\n", rid, row.Value)
		}
	}
	return nil
}

func (s *Shell) query(line string) error {
	pattern, err := treepattern.Parse(line)
	if err != nil {
		return err
	}
	q, err := s.cap.Query(pattern)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, q.Report())
	if q.Matched.Len() > 0 && len(q.Items()) == 0 {
		fmt.Fprintln(s.out, "(hint: a question addressing only grouping attributes traces to no inputs,")
		fmt.Fprintln(s.out, " per the paper's Alg. 4 — include a nested or aggregated value in the pattern)")
	}
	// Summarise the where-provenance cells per source for quick scanning.
	var oids []int
	for oid := range q.Traced.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	for _, oid := range oids {
		cells := q.Traced.BySource[oid].ContributingPaths()
		uniq := map[string]bool{}
		for _, ps := range cells {
			for _, p := range ps {
				uniq[p] = true
			}
		}
		if len(uniq) == 0 {
			continue
		}
		var list []string
		for p := range uniq {
			list = append(list, p)
		}
		sort.Strings(list)
		fmt.Fprintf(s.out, "cells contributing from source %d: %s\n", oid, strings.Join(list, ", "))
	}
	return nil
}

// printSchemas analyzes the captured pipeline against the types of the
// datasets its sources read and prints per-operator output types. An
// operator without one is below a map, or else reads an input without rows,
// whose type is unknown: the line names which.
func (s *Shell) printSchemas() error {
	sources := map[string]*engine.Dataset{}
	for _, src := range s.cap.Result.Sources {
		sources[src.Name] = src
	}
	schemas, err := engine.Analyze(s.cap.Pipeline, engine.InferInputTypes(sources))
	if err != nil {
		return err
	}
	for _, op := range s.cap.Pipeline.Ops() {
		if t, ok := schemas[op.ID()]; ok {
			fmt.Fprintf(s.out, "  %-3d %s\n", op.ID(), t)
		} else {
			fmt.Fprintf(s.out, "  %-3d (unknown: %s)\n", op.ID(), unknownCause(s.cap.Pipeline.Ops(), op, schemas))
		}
	}
	return nil
}

// unknownCause says why Analyze gave op no type: a map at or above it, or
// else the sources above it whose inputs have no rows.
func unknownCause(ops []*engine.Op, op *engine.Op, schemas map[int]nested.Type) string {
	above := map[int]bool{}
	var walk func(o *engine.Op)
	walk = func(o *engine.Op) {
		if !above[o.ID()] {
			above[o.ID()] = true
			for _, in := range o.Inputs() {
				walk(in)
			}
		}
	}
	walk(op)
	var empty []string
	for _, o := range ops {
		if !above[o.ID()] {
			continue
		}
		if o.Type() == engine.OpMap {
			return "below a map"
		}
		if _, typed := schemas[o.ID()]; o.Type() == engine.OpSource && !typed {
			empty = append(empty, o.String())
		}
	}
	return "no rows in " + strings.Join(empty, ", ")
}
