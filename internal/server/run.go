package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/obs"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
	"pebble/pkg/sdk"
)

// runJob is the runner-pool entry point: it drives one job through its
// terminal status (finish folds its metrics into the session aggregates). A
// panic in the job fails it, with the stack as a note, and leaves the runner
// to the next job.
func (s *Server) runJob(j *job) {
	if !j.start() {
		// Finished before dispatch (shutdown drained the queue).
		return
	}
	err := s.runKind(j)
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		j.event(sdk.JobEvent{Kind: "note", Message: string(pe.Stack)})
	}
	switch {
	case err == nil:
		j.finish(sdk.StatusDone, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(sdk.StatusCancelled, err.Error())
	default:
		j.finish(sdk.StatusFailed, err.Error())
	}
}

// runKind does the job's work; a panic in it is returned as its error.
func (s *Server) runKind(j *job) (err error) {
	defer engine.Recover(&err)
	switch j.kind {
	case sdk.KindPipeline:
		return s.runPipeline(j)
	case sdk.KindTrace:
		return s.runTrace(j)
	}
	return fmt.Errorf("unknown job kind %q", j.kind)
}

// resolvePipeline turns a pipeline-job request into an executable plan and
// its inputs. Scenario names resolve against the operator-registered
// factories first, then the built-in paper scenarios; spec submissions are
// corpus.Spec JSON whose source steps prefer the session's registered
// datasets over the spec's inline rows.
func (s *Server) resolvePipeline(j *job) (*engine.Pipeline, map[string]*engine.Dataset, error) {
	parts := j.sess.base.ResolvePartitions(0)
	if name := j.req.Scenario; name != "" {
		if f, ok := s.cfg.Pipelines[name]; ok {
			p, err := f.Build()
			if err != nil {
				return nil, nil, fmt.Errorf("build pipeline %q: %w", name, err)
			}
			inputs, err := f.Inputs(j.req.SimGB, parts)
			if err != nil {
				return nil, nil, fmt.Errorf("inputs for %q: %w", name, err)
			}
			return p, inputs, nil
		}
		sc, err := workload.ByName(name)
		if err != nil {
			return nil, nil, fmt.Errorf("unknown pipeline %q (not a registered factory or paper scenario)", name)
		}
		simGB := j.req.SimGB
		if simGB <= 0 {
			simGB = 1
		}
		return sc.Build(), sc.Input(workload.DefaultScale(simGB), parts), nil
	}
	var spec corpus.Spec
	if err := json.Unmarshal(j.req.Spec, &spec); err != nil {
		return nil, nil, fmt.Errorf("decode pipeline spec: %w", err)
	}
	p, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	inputs := spec.Inputs(parts)
	for _, st := range spec.Steps {
		if st.Op != corpus.StepSource {
			continue
		}
		if ds, ok := j.sess.dataset(st.Dataset); ok {
			inputs[st.Dataset] = ds
		} else if _, inline := inputs[st.Dataset]; !inline {
			return nil, nil, fmt.Errorf("source %q: dataset neither registered in session nor inline in spec", st.Dataset)
		}
	}
	return p, inputs, nil
}

// runPipeline executes a pipeline job under the session configuration with
// the job's recorder and context. Captured provenance is persisted as a
// .pbl artifact and then dropped from memory: the execution result stays
// resident for pattern matching, the provenance reloads lazily when a trace
// job needs it.
func (s *Server) runPipeline(j *job) error {
	p, inputs, err := s.resolvePipeline(j)
	if err != nil {
		return err
	}
	cfg := j.sess.exec(j.rec)
	if j.req.Capture != nil && !*j.req.Capture {
		res, err := cfg.RunContext(j.ctx, p, inputs)
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.pipeline, j.result = p, res
		j.mu.Unlock()
		return nil
	}
	cap, err := cfg.CaptureContext(j.ctx, p, inputs)
	if err != nil {
		return err
	}
	provPath, n, err := s.persistArtifacts(j, cap)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.pipeline, j.result = p, cap.Result
	j.provPath, j.provBytes = provPath, n
	j.mu.Unlock()
	return nil
}

// persistArtifacts writes the capture's provenance (.pbl) — the stream
// Finish encoded and loaded, so it needs no check here — and its index
// sidecar (.idx), a few dozen bytes that no trace reads: the benchmark
// still measures the file (backtrace/sidecar.go says why it remains).
// Either both files exist afterwards or neither. The writes are the job's
// persist span.
func (s *Server) persistArtifacts(j *job, cap *core.Captured) (provPath string, n int64, err error) {
	defer j.rec.StartSpan(obs.SpanPersist)()
	provPath, idxPath := s.artifactPath(j.sess, j, ".pbl"), s.artifactPath(j.sess, j, ".idx")
	if n, err = writeArtifact(provPath, cap.Provenance.WriteTo); err != nil {
		return "", 0, fmt.Errorf("write provenance artifact: %w", err)
	}
	if _, err := writeArtifact(idxPath, backtrace.NewTracer(cap.Provenance).WriteIndexes); err != nil {
		os.Remove(provPath) //nolint:errcheck // best-effort cleanup
		return "", 0, fmt.Errorf("write index sidecar: %w", err)
	}
	return provPath, n, nil
}

// writeArtifact puts what write writes under path by way of a temp file
// beside it and a rename, so no reader finds a partial artifact under the
// final name and a failed write leaves nothing behind. There is no fsync:
// surviving a power loss is not promised (DESIGN.md §12.2).
func writeArtifact(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name()) //nolint:errcheck // best-effort cleanup
	}
	return n, err
}

// runTrace executes a trace job: it reloads the target pipeline job's
// persisted provenance lazily — the one file it reads, whose columns are the
// tracer's indexes — builds the backtracing structure from the requested
// pattern, and walks the provenance back to the sources.
func (s *Server) runTrace(j *job) error {
	target, ok := j.sess.job(j.req.TargetJob)
	if !ok {
		return fmt.Errorf("target job %q not found", j.req.TargetJob)
	}
	tinfo := target.info()
	if target.kind != sdk.KindPipeline || tinfo.Status != sdk.StatusDone {
		return fmt.Errorf("target job %s is %s %s; need a done pipeline job", target.id, tinfo.Status, target.kind)
	}
	target.mu.Lock()
	provPath := target.provPath
	pipeline, result := target.pipeline, target.result
	target.mu.Unlock()
	if provPath == "" {
		return fmt.Errorf("target job %s captured no provenance (capture=false)", target.id)
	}
	data, err := os.ReadFile(provPath)
	if err != nil {
		return fmt.Errorf("read provenance artifact: %w", err)
	}
	loaded := j.rec.StartSpan(obs.SpanRunLoad)
	run, err := provenance.ReadRunLazy(data)
	loaded()
	if err != nil {
		return fmt.Errorf("load provenance artifact: %w", err)
	}
	cap := core.Reattached(pipeline, result, run, nil, j.rec)

	b, err := j.buildStructure(cap)
	if err != nil {
		return err
	}
	startID := j.req.StartOp
	if startID <= 0 {
		startID = pipeline.Sink().ID()
	}
	op, ok := run.OpByID(provenance.OpID(startID))
	if !ok {
		return fmt.Errorf("operator %d not present in captured provenance", startID)
	}
	qr, err := cap.TraceAtContext(j.ctx, op, b)
	if err != nil {
		return err
	}
	rendered := j.rec.StartSpan(obs.SpanAnswerRender)
	report, js, err := qr.Answer()
	rendered()
	if err != nil {
		return fmt.Errorf("encode trace result: %w", err)
	}
	out := &sdk.TraceOutput{Matched: b.Len(), Report: report, Result: js}
	j.mu.Lock()
	j.trace = out
	j.mu.Unlock()
	return nil
}

// buildStructure turns the trace request's question into a backtracing
// structure over the target's result; a pattern is matched through the
// capture, which reports the compile and match spans into the job recorder.
func (j *job) buildStructure(cap *core.Captured) (*backtrace.Structure, error) {
	switch {
	case j.req.TraceAll:
		return core.FullStructure(cap.Result.Output), nil
	case j.req.PatternText != "":
		pat, err := treepattern.Parse(j.req.PatternText)
		if err != nil {
			return nil, fmt.Errorf("parse pattern: %w", err)
		}
		return cap.Match(pat), nil
	default:
		pat := &treepattern.Pattern{}
		if err := json.Unmarshal(j.req.Pattern, pat); err != nil {
			return nil, fmt.Errorf("decode pattern: %w", err)
		}
		return cap.Match(pat), nil
	}
}
