package oracle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pebble/internal/corpus"
)

// repro is the JSON envelope of a reproducer: the spec, and the
// disagreement it showed when one was recorded.
type repro struct {
	Kind   string       `json:"kind,omitempty"`
	Detail string       `json:"detail,omitempty"`
	Spec   *corpus.Spec `json:"spec"`
}

// WriteRepro persists a (typically shrunk) failing spec under dir as
// seed-<seed>.json, the replayable spec with the disagreement d beside it,
// and returns the file's path and the bytes it wrote.
func WriteRepro(dir string, s *corpus.Spec, d *Disagreement) (path string, data []byte, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	envelope := repro{Spec: s}
	if d != nil {
		envelope.Kind, envelope.Detail = d.Kind, d.Detail
	}
	if data, err = json.MarshalIndent(envelope, "", "  "); err != nil {
		return "", nil, err
	}
	data = append(data, '\n')
	path = filepath.Join(dir, fmt.Sprintf("seed-%d.json", s.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", nil, err
	}
	return path, data, nil
}

// ReadRepro loads a reproducer written by WriteRepro: the spec, and the
// disagreement recorded with it (nil when the file records none).
func ReadRepro(path string) (*corpus.Spec, *Disagreement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var envelope repro
	if err := json.Unmarshal(data, &envelope); err != nil {
		return nil, nil, err
	}
	if envelope.Spec == nil {
		return nil, nil, fmt.Errorf("oracle: %s: no spec in envelope", path)
	}
	var d *Disagreement
	if envelope.Kind != "" || envelope.Detail != "" {
		d = &Disagreement{Kind: envelope.Kind, Detail: envelope.Detail, Seed: envelope.Spec.Seed}
	}
	return envelope.Spec, d, nil
}
