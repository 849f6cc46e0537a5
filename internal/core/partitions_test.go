package core

import (
	"context"
	"errors"
	"testing"

	"pebble/internal/engine"
	"pebble/internal/nested"
)

// TestPartitionPrecedence pins the single precedence rule — explicit >
// session > engine default — across every way a session can be built,
// including the single-worker form that historically resolved dataset
// partitions through a different code path than execution partitions.
// Session.NewDataset and Session.options must always agree.
func TestPartitionPrecedence(t *testing.T) {
	cases := []struct {
		name     string
		session  Session
		explicit int
		want     int
	}{
		{"all-defaults", NewSession(), 0, engine.DefaultPartitions},
		{"explicit-wins-over-default", NewSession(), 3, 3},
		{"session-wins-over-default", NewSession(WithPartitions(5)), 0, 5},
		{"explicit-wins-over-session", NewSession(WithPartitions(5)), 7, 7},
		{"negative-explicit-falls-through", NewSession(WithPartitions(5)), -2, 5},
		{"one-worker-inherits-default", NewSession(WithWorkers(1)), 0, engine.DefaultPartitions},
		{"one-worker-with-session-parts", NewSession(WithWorkers(1), WithPartitions(4)), 0, 4},
		{"one-worker-explicit", NewSession(WithWorkers(1)), 2, 2},
		{"workers-do-not-leak-into-parts", NewSession(WithWorkers(9)), 0, engine.DefaultPartitions},
		{"zero-session-parts-is-default", Session{Partitions: 0, Workers: 1}, 0, engine.DefaultPartitions},
		{"negative-session-parts-is-default", Session{Partitions: -4}, 0, engine.DefaultPartitions},
	}
	// Enough values that engine.NewDataset's parts-capped-at-len clamp never
	// interferes with the precedence being tested.
	vals := make([]nested.Value, 64)
	for i := range vals {
		vals[i] = nested.Item(nested.F("n", nested.Int(int64(i))))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.session.ResolvePartitions(tc.explicit); got != tc.want {
				t.Errorf("ResolvePartitions(%d) = %d, want %d", tc.explicit, got, tc.want)
			}
			ds := tc.session.NewDataset("d", vals, tc.explicit)
			if got := len(ds.Partitions); got != tc.want {
				t.Errorf("NewDataset parts = %d, want %d", got, tc.want)
			}
			// The execution options must agree with a parts<=0 dataset: a
			// session can never run with a partition count different from
			// the datasets it built (when parts was inherited).
			if tc.explicit <= 0 {
				if got := tc.session.options().Partitions; got != tc.want {
					t.Errorf("options().Partitions = %d, want %d (disagrees with NewDataset)", got, tc.want)
				}
			}
		})
	}
}

// TestSessionContextEntryPoints covers RunContext/CaptureContext delegation
// and cancellation surfacing through the Session layer.
func TestSessionContextEntryPoints(t *testing.T) {
	vals := []nested.Value{
		nested.Item(nested.F("n", nested.Int(1))),
		nested.Item(nested.F("n", nested.Int(2))),
	}
	s := NewSession(WithPartitions(2))
	inputs := map[string]*engine.Dataset{"in": s.NewDataset("in", vals, 0)}
	p := engine.NewPipeline()
	p.Filter(p.Source("in"), engine.Gt(engine.Col("n"), engine.LitInt(1)))

	if _, err := s.RunContext(context.Background(), p, inputs); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	cap, err := s.CaptureContext(context.Background(), p, inputs)
	if err != nil {
		t.Fatalf("CaptureContext: %v", err)
	}
	if cap.Result.Output.Len() != 1 {
		t.Errorf("rows = %d, want 1", cap.Result.Output.Len())
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(cancelled, p, inputs); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := s.CaptureContext(cancelled, p, inputs); !errors.Is(err, context.Canceled) {
		t.Errorf("CaptureContext(cancelled) = %v, want context.Canceled", err)
	}
}
