package backtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pebble/internal/provenance"
)

// Index sidecar: the .idx file the daemon persists beside a run. No trace
// reads it: an operator's index is the run's own columns (trace.go), and an
// operator whose Out column is out of order is sorted on first use. The file
// and these two methods remain only because the benchmark's capture and
// trace replays write, load and measure it (backtrace.idx_bytes,
// backtrace.index_load_s, the .idx share of artifact_bytes_per_row); they go
// with those metrics.
//
// Wire format (DESIGN.md §9.2):
//
//	magic "PBLI" | u16 version=2 | u64 runHash | u64 payloadHash
//	payload: uvarint #ops, then per op (run order): uvarint oid | u8 kind | u8 inRun
//
// inRun is 1 when the operator's Out column is non-decreasing, as it is for
// every operator of a run the engine wrote, and 0 otherwise. The sidecar is a
// pure function of the run, byte-identical across worker counts.
const (
	sidecarMagic   = "PBLI"
	sidecarVersion = 2
	// sidecarHeaderLen is magic + version + runHash + payloadHash.
	sidecarHeaderLen = 4 + 2 + 8 + 8
)

// WriteIndexes writes the run's sidecar: the header, then each operator's
// id, association kind and in-run flag. For an engine run these are the
// bytes every version-2 writer wrote; an out-of-order operator gets flag 0
// and nothing after it. It builds no index.
func (t *Tracer) WriteIndexes(w io.Writer) (int64, error) {
	n, err := w.Write(t.sidecar())
	if err != nil {
		return int64(n), fmt.Errorf("backtrace: writing index sidecar: %w", err)
	}
	return int64(n), nil
}

// sidecar is the sidecar of the tracer's run.
func (t *Tracer) sidecar() []byte {
	ops := t.run.Operators()
	buf := append(make([]byte, 0, sidecarHeaderLen+1+4*len(ops)), sidecarMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, sidecarVersion)
	buf = binary.LittleEndian.AppendUint64(buf, t.run.ContentHash())
	buf = append(buf, make([]byte, 8)...) // payloadHash, below
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		inRun := byte(0)
		if op.OutOrdered() {
			inRun = 1
		}
		buf = append(binary.AppendUvarint(buf, uint64(op.OID)), byte(op.AssocKind()), inRun)
	}
	binary.LittleEndian.PutUint64(buf[14:], provenance.HashStream(buf[sidecarHeaderLen:]))
	return buf
}

// LoadIndexes validates data as the sidecar of the tracer's run — the very
// bytes WriteIndexes writes for it, so magic, version, run hash, checksum and
// every operator's id, kind and flag must match, with nothing after the last —
// and installs nothing: the tracer reads its indexes off the run either way.
func (t *Tracer) LoadIndexes(data []byte) error {
	if !bytes.Equal(data, t.sidecar()) {
		return errors.New("backtrace: index sidecar does not match the run")
	}
	return nil
}
