package server

import (
	"fmt"
	"sync"
	"time"

	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/obs"
	"pebble/pkg/sdk"
)

// session is one named daemon session: a core.Session configuration plus
// the datasets registered for it and the jobs submitted to it. Jobs run
// with a per-job recorder; on completion their metric snapshots fold into
// the session's running aggregates, which back /stats.
type session struct {
	name    string
	base    core.Session // configuration template; never carries a recorder
	created time.Time

	mu       sync.Mutex
	datasets map[string]*engine.Dataset
	dsBytes  map[string]int64
	dsOrder  []string
	jobs     map[string]*job
	jobOrder []string
	nextJob  int

	// /stats aggregates over finished jobs.
	jobsByStatus map[string]int
	counters     map[string]int64
	spansMS      map[string]float64
}

func newSession(spec sdk.SessionSpec) *session {
	base := core.Session{
		Partitions: spec.Partitions,
		Workers:    spec.Workers,
	}
	return &session{
		name:         spec.Name,
		base:         base,
		created:      time.Now(),
		datasets:     make(map[string]*engine.Dataset),
		dsBytes:      make(map[string]int64),
		jobs:         make(map[string]*job),
		jobsByStatus: make(map[string]int),
		counters:     make(map[string]int64),
		spansMS:      make(map[string]float64),
	}
}

// exec returns the session configuration wired to a job's recorder.
func (s *session) exec(rec *obs.Recorder) core.Session {
	cfg := s.base
	cfg.Recorder = rec
	return cfg
}

func (s *session) info() sdk.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sdk.SessionInfo{
		Name:       s.name,
		Partitions: s.base.ResolvePartitions(0),
		Workers:    s.base.Workers,
		Created:    s.created,
		Datasets:   len(s.datasets),
		Jobs:       len(s.jobs),
	}
}

// addDataset registers a dataset built from uploaded values. Duplicate
// names are rejected: jobs may already reference the existing data, and
// silent replacement would make provenance non-reproducible. An accepted
// upload shows in /stats: bytes and rows as counters, body read, parse and
// build as spans.
func (s *session) addDataset(name string, ds *engine.Dataset, rawBytes int64, read, parse, build time.Duration) (sdk.DatasetInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; ok {
		return sdk.DatasetInfo{}, fmt.Errorf("dataset %q already registered", name)
	}
	s.datasets[name] = ds
	s.dsBytes[name] = rawBytes
	s.dsOrder = append(s.dsOrder, name)
	s.counters["upload_bytes"] += rawBytes
	s.counters["upload_rows"] += int64(ds.Len())
	s.spansMS["upload_read"] += float64(read.Nanoseconds()) / 1e6
	s.spansMS["upload_parse"] += float64(parse.Nanoseconds()) / 1e6
	s.spansMS["upload_build"] += float64(build.Nanoseconds()) / 1e6
	return sdk.DatasetInfo{Name: name, Rows: ds.Len(), Partitions: len(ds.Partitions), Bytes: rawBytes}, nil
}

func (s *session) dataset(name string) (*engine.Dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	return ds, ok
}

func (s *session) listDatasets() []sdk.DatasetInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sdk.DatasetInfo, 0, len(s.dsOrder))
	for _, name := range s.dsOrder {
		ds := s.datasets[name]
		out = append(out, sdk.DatasetInfo{Name: name, Rows: ds.Len(), Partitions: len(ds.Partitions), Bytes: s.dsBytes[name]})
	}
	return out
}

// newJob mints a job with a session-scoped sequential id and registers it.
func (s *session) newJob(kind string, req sdk.SubmitJobRequest) *job {
	s.mu.Lock()
	s.nextJob++
	id := fmt.Sprintf("j%d", s.nextJob)
	s.mu.Unlock()
	j := newJob(id, kind, s, req)
	s.mu.Lock()
	s.jobs[id] = j
	s.jobOrder = append(s.jobOrder, id)
	s.mu.Unlock()
	return j
}

func (s *session) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *session) listJobs() []sdk.JobInfo {
	s.mu.Lock()
	order := append([]string(nil), s.jobOrder...)
	jobs := make([]*job, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]sdk.JobInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.info())
	}
	return out
}

// absorb folds a finished job's metrics into the session aggregates. Its one
// caller is job.finish, once per job, so no job is counted twice or missed.
func (s *session) absorb(j *job) {
	snap := j.rec.Snapshot()
	info := j.info()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobsByStatus[info.Status]++
	for _, op := range snap.Ops {
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			if n := op.Counters[c]; n != 0 {
				s.counters[c.String()] += n
			}
		}
	}
	for _, sp := range snap.Spans {
		s.spansMS[sp.Span.String()] += float64(sp.Total.Nanoseconds()) / 1e6
	}
}

// stats snapshots the session aggregates for /stats.
func (s *session) stats() sdk.SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := sdk.SessionStats{
		Name:     s.name,
		Datasets: len(s.datasets),
		Jobs:     make(map[string]int, len(s.jobsByStatus)+2),
		Counters: make(map[string]int64, len(s.counters)),
		SpansMS:  make(map[string]float64, len(s.spansMS)),
	}
	for k, v := range s.jobsByStatus {
		st.Jobs[k] = v
	}
	for k, v := range s.counters {
		st.Counters[k] = v
	}
	for k, v := range s.spansMS {
		st.SpansMS[k] = v
	}
	// Queued/running jobs are not yet absorbed; count them live, walking
	// jobOrder so the traversal (and any lock interleaving) is deterministic.
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		j.mu.Lock()
		status := j.status
		j.mu.Unlock()
		if !sdk.TerminalStatus(status) {
			st.Jobs[status]++
		}
	}
	return st
}
