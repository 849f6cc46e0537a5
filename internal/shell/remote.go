package shell

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pebble/pkg/sdk"
)

// Remote is the shell's daemon-backed mode: the same question-answer loop as
// Shell, but every tree-pattern question becomes an asynchronous trace job
// submitted to a pebbled daemon through the SDK, run against the persisted
// provenance of a completed pipeline job. The daemon reloads that artifact
// lazily from that one file, so an interactive explorer can attach
// to any capture the service ever ran — long after the capturing process
// exited — and the reports are byte-identical to local execution.
type Remote struct {
	c       *sdk.Client
	session string
	job     string
	out     io.Writer
}

// remoteTimeout bounds each remote round trip (submit + wait + fetch).
const remoteTimeout = 2 * time.Minute

// NewRemote returns a shell over the completed pipeline job `job` in
// `session` on the daemon behind c, writing to out.
func NewRemote(c *sdk.Client, session, job string, out io.Writer) *Remote {
	return &Remote{c: c, session: session, job: job, out: out}
}

// Run reads commands from in until EOF or "quit", mirroring Shell.Run.
func (r *Remote) Run(in io.Reader) error {
	fmt.Fprintf(r.out, "pebble provenance shell (remote) — session %q, job %s\n", r.session, r.job)
	fmt.Fprintln(r.out, `enter a tree-pattern (e.g. //id_str == "hotuser"), or a command: help, jobs, use <job-id>, events, stats, json <pattern>, quit`)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(r.out, "> ")
		if !scanner.Scan() {
			fmt.Fprintln(r.out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := r.dispatch(line); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
	}
}

func (r *Remote) dispatch(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "help":
		r.help()
		return nil
	case "jobs":
		return r.printJobs()
	case "use":
		if len(fields) != 2 {
			return fmt.Errorf("usage: use <job-id>")
		}
		return r.use(fields[1])
	case "events":
		return r.printEvents()
	case "stats", ":stats":
		return r.printStats()
	case "json":
		rest := strings.TrimSpace(strings.TrimPrefix(line, "json"))
		if rest == "" {
			return fmt.Errorf("usage: json <tree-pattern>")
		}
		out, err := r.trace(rest)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, string(out.Result))
		return nil
	default:
		out, err := r.trace(line)
		if err != nil {
			return err
		}
		fmt.Fprint(r.out, out.Report)
		return nil
	}
}

func (r *Remote) help() {
	fmt.Fprintln(r.out, `commands (remote mode):
  help                     this help
  jobs                     list this session's jobs on the daemon
  use <job-id>             switch questions to another completed pipeline job
  events                   replay the target job's progress event stream
  json <pattern>           answer a pattern question as JSON
  stats                    daemon gauges and this session's aggregates
  quit                     leave the shell
anything else is parsed as a tree-pattern provenance question and submitted
to the daemon as a trace job against the target pipeline job, e.g.
  //id_str == "hotuser", tweets(text)`)
}

// trace submits one textual pattern question as a trace job and waits for
// its result.
func (r *Remote) trace(patternText string) (sdk.TraceOutput, error) {
	ctx, cancel := r.ctx()
	defer cancel()
	j, err := r.c.SubmitJob(ctx, r.session, sdk.SubmitJobRequest{
		Kind: sdk.KindTrace, TargetJob: r.job, PatternText: patternText,
	})
	if err != nil {
		return sdk.TraceOutput{}, err
	}
	info, err := r.c.WaitJob(ctx, r.session, j.ID)
	if err != nil {
		return sdk.TraceOutput{}, err
	}
	if info.Status != sdk.StatusDone {
		return sdk.TraceOutput{}, fmt.Errorf("trace job %s: %s (%s)", j.ID, info.Status, info.Error)
	}
	return r.c.TraceResult(ctx, r.session, j.ID)
}

func (r *Remote) use(id string) error {
	ctx, cancel := r.ctx()
	defer cancel()
	info, err := r.c.GetJob(ctx, r.session, id)
	if err != nil {
		return err
	}
	if info.Kind != sdk.KindPipeline || info.Status != sdk.StatusDone {
		return fmt.Errorf("job %s is %s/%s; questions need a completed pipeline job", id, info.Kind, info.Status)
	}
	r.job = id
	fmt.Fprintf(r.out, "tracing against job %s (%d result rows, %d provenance bytes)\n",
		id, info.ResultRows, info.ProvBytes)
	return nil
}

func (r *Remote) printJobs() error {
	ctx, cancel := r.ctx()
	defer cancel()
	jobs, err := r.c.ListJobs(ctx, r.session)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		mark := " "
		if j.ID == r.job {
			mark = "*"
		}
		extra := ""
		switch {
		case j.Error != "":
			extra = " — " + j.Error
		case j.Kind == sdk.KindPipeline && j.Status == sdk.StatusDone:
			extra = fmt.Sprintf(" — %d rows, %d prov bytes", j.ResultRows, j.ProvBytes)
		case j.Kind == sdk.KindTrace && j.Status == sdk.StatusDone:
			extra = fmt.Sprintf(" — %d matched", j.Matched)
		}
		fmt.Fprintf(r.out, "%s %-4s %-8s %-9s%s\n", mark, j.ID, j.Kind, j.Status, extra)
	}
	return nil
}

// printEvents replays the target job's progress stream; on a finished job
// the daemon drains the recorded events and closes.
func (r *Remote) printEvents() error {
	ctx, cancel := r.ctx()
	defer cancel()
	return r.c.StreamEvents(ctx, r.session, r.job, func(e sdk.JobEvent) error {
		switch e.Kind {
		case "status":
			fmt.Fprintf(r.out, "%3d status     %s\n", e.Seq, e.Status)
		case "phase_end":
			fmt.Fprintf(r.out, "%3d phase      %-16s %.2fms\n", e.Seq, e.Span, e.ElapsedMS)
		case "phase_start":
			// The matching phase_end carries the duration; skip the opener.
		case "op":
			fmt.Fprintf(r.out, "%3d op         P%-3d %s\n", e.Seq, e.OID, e.OpType)
		default:
			fmt.Fprintf(r.out, "%3d %-10s %s\n", e.Seq, e.Kind, e.Message)
		}
		return nil
	})
}

func (r *Remote) printStats() error {
	ctx, cancel := r.ctx()
	defer cancel()
	st, err := r.c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "daemon: up %.1fs, queued %d, running %d (queue depth %d, session cap %d)\n",
		st.UptimeSeconds, st.Queued, st.Running, st.QueueDepth, st.SessionCap)
	for _, s := range st.Sessions {
		if s.Name != r.session {
			continue
		}
		var statuses []string
		for k := range s.Jobs {
			statuses = append(statuses, k)
		}
		sort.Strings(statuses)
		parts := make([]string, 0, len(statuses))
		for _, k := range statuses {
			parts = append(parts, fmt.Sprintf("%s %d", k, s.Jobs[k]))
		}
		fmt.Fprintf(r.out, "session %q: %d dataset(s); jobs: %s\n", s.Name, s.Datasets, strings.Join(parts, ", "))
		var names []string
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(r.out, "  %-12s %d\n", k, s.Counters[k])
		}
	}
	return nil
}

func (r *Remote) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), remoteTimeout)
}
