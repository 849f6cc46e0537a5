// Package engine implements the program execution model of Sec. 4.2: a
// directed acyclic graph of operators (filter, select, map, join, union,
// flatten, grouping/aggregation) over partitioned datasets of nested data
// items. It stands in for the Apache Spark substrate of the paper's Pebble
// system: independent DAG branches execute concurrently, every operator
// processes its logical partitions as morsels on a bounded worker pool
// (Options.Workers goroutines), and join/aggregation shuffle by key hash.
// Logical partitioning is decoupled from physical parallelism: results,
// identifiers, and captured provenance are byte-identical for every Workers
// setting (see schedule.go).
//
// Provenance capture is decoupled through the CaptureSink interface so the
// same execution path runs with no capture, Titian-style lineage capture, or
// structural provenance capture.
package engine

import (
	"fmt"
	"sync/atomic"

	"pebble/internal/nested"
)

// Row is one top-level data item together with its unique provenance
// identifier — the only annotation structural provenance attaches to data
// (Sec. 5.1: "recording a unique identifier suffices to identify each
// top-level item").
type Row struct {
	ID    int64
	Value nested.Value
}

// Dataset is a partitioned, ordered collection of rows.
type Dataset struct {
	Name       string
	Partitions [][]Row
}

// IDGen hands out unique top-level item identifiers for one run. It is safe
// for concurrent use.
type IDGen struct {
	next atomic.Int64
}

// NewIDGen returns a generator whose first ID is start.
func NewIDGen(start int64) *IDGen {
	g := &IDGen{}
	g.next.Store(start)
	return g
}

// Reserve returns the first of n consecutive fresh identifiers.
func (g *IDGen) Reserve(n int64) int64 { return g.next.Add(n) - n }

// NewDataset partitions values round-robin into parts partitions and assigns
// each row an identifier from gen. parts < 1 defaults to 1.
func NewDataset(name string, values []nested.Value, parts int, gen *IDGen) *Dataset {
	if parts < 1 {
		parts = 1
	}
	if parts > len(values) && len(values) > 0 {
		parts = len(values)
	}
	partitions := make([][]Row, parts)
	if per := (len(values) + parts - 1) / parts; per > 0 {
		for p := range partitions {
			partitions[p] = make([]Row, 0, per)
		}
	}
	base := gen.Reserve(int64(len(values)))
	for i, v := range values {
		p := i % parts
		partitions[p] = append(partitions[p], Row{ID: base + int64(i), Value: v})
	}
	return &Dataset{Name: name, Partitions: partitions}
}

// Len returns the total number of rows.
func (d *Dataset) Len() int {
	n := 0
	for _, p := range d.Partitions {
		n += len(p)
	}
	return n
}

// Rows returns all rows, partition by partition. The result is a fresh
// slice; mutating it does not affect the dataset.
func (d *Dataset) Rows() []Row {
	out := make([]Row, 0, d.Len())
	for _, p := range d.Partitions {
		out = append(out, p...)
	}
	return out
}

// FindByID returns the row with the given provenance identifier.
func (d *Dataset) FindByID(id int64) (Row, bool) {
	for _, p := range d.Partitions {
		for _, r := range p {
			if r.ID == id {
				return r, true
			}
		}
	}
	return Row{}, false
}

// String summarises the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset %q: %d rows in %d partitions", d.Name, d.Len(), len(d.Partitions))
}
