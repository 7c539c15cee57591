// Command mksim simulates one task set under one scheduling approach and
// prints the energy/QoS report (optionally with an ASCII Gantt chart).
//
// Usage:
//
//	mksim -set tasks.json -approach selective -horizon 100 -gantt
//	mksim -demo -approach dp        # the paper's §III example set
//	mksim -set tasks.json -approach selective -scenario permanent -seed 7
//	mksim -demo -json               # machine-readable run report on stdout
//	mksim -demo -events run.jsonl   # structured event trace (JSONL)
//	mksim -demo -estimate           # analytical-twin answer, no simulation
//
// The task-set JSON schema:
//
//	{"tasks": [{"period_ms":5, "deadline_ms":4, "wcet_ms":3, "m":2, "k":4}]}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro"
	"repro/internal/estimate"
	"repro/internal/serve"
)

// options collects the parsed flags.
type options struct {
	setPath   string
	demo      bool
	approach  string
	horizonMS float64
	scenario  string
	seed      uint64
	gantt     bool
	segments  bool
	perTask   bool
	jsonOut   bool
	events    string
	estimate  bool
}

// approachUsage and scenarioUsage list, after their colons, names the
// flags' parsers accept: every approach by its canonical name, which
// also parses without its MKSS- prefix, and every scenario.
var approachUsage = "approach (any case, MKSS- prefix optional): " + strings.Join(repro.ApproachNames(), " | ")

const scenarioUsage = "fault scenario: none | permanent | permanent+transient"

func main() {
	var o options
	flag.StringVar(&o.setPath, "set", "", "path to a JSON task-set spec (- = stdin)")
	flag.BoolVar(&o.demo, "demo", false, "use the paper's §III example set instead of -set")
	flag.StringVar(&o.approach, "approach", "selective", approachUsage)
	flag.Float64Var(&o.horizonMS, "horizon", 0, "simulated ms (0 = one (m,k)-hyperperiod, capped at 2000)")
	flag.StringVar(&o.scenario, "scenario", "none", scenarioUsage)
	flag.Uint64Var(&o.seed, "seed", 1, "fault realization seed")
	flag.BoolVar(&o.gantt, "gantt", false, "print an ASCII Gantt chart")
	flag.BoolVar(&o.segments, "segments", false, "print every execution segment")
	flag.BoolVar(&o.perTask, "pertask", false, "print per-task energy/outcome attribution")
	flag.BoolVar(&o.jsonOut, "json", false, "print a machine-readable run report (schema mkss-run/v1) instead of text")
	flag.StringVar(&o.events, "events", "", "write the structured event trace as JSONL to this regular file, replaced only when the run succeeds")
	flag.BoolVar(&o.estimate, "estimate", false, "answer from the closed-form analytical twin instead of simulating")
	flag.Parse()
	// SIGINT and SIGTERM cancel the simulation gracefully: the engine
	// stops at the next event-loop check and run reports the interruption.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mksim: interrupted — no results (single runs have no partial output)")
		} else {
			fmt.Fprintf(os.Stderr, "mksim: %v\n", err)
		}
		os.Exit(1)
	}
}

// run does what o asks and prints the report on stdout; a run that fails
// prints nothing there.
func run(ctx context.Context, o options, stdout io.Writer) error {
	var s *repro.Set
	switch {
	case o.demo:
		s = repro.NewSet(repro.NewTask(5, 4, 3, 2, 4), repro.NewTask(10, 10, 3, 1, 2))
	case o.setPath != "":
		var err error
		if s, err = repro.LoadSetFile(o.setPath); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -set FILE or -demo")
	}

	a, err := repro.ParseApproach(o.approach)
	if err != nil {
		return err
	}
	sc, err := repro.ParseScenario(o.scenario)
	if err != nil {
		return err
	}

	if o.estimate {
		return runEstimate(s, a, sc, o, stdout)
	}

	trace := o.gantt || o.perTask
	cfg := repro.RunConfig{
		HorizonMS:   o.horizonMS,
		Scenario:    sc,
		Seed:        o.seed,
		RecordTrace: trace || o.segments,
	}
	// The trace goes to a temporary file beside o.events, which replaces
	// o.events only once the run and the trace's writes have succeeded:
	// a refused run leaves an earlier trace as it was.
	var commitEvents func() error
	if o.events != "" {
		// The rename would replace a symlink or a device node such as
		// /dev/stdout itself, not write through it.
		if fi, err := os.Lstat(o.events); err == nil && !fi.Mode().IsRegular() {
			return fmt.Errorf("-events %s is not a regular file", o.events)
		}
		tmp := fmt.Sprintf("%s.%d.tmp", o.events, os.Getpid())
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if err != nil {
			return err
		}
		defer func() {
			// Both fail harmlessly once the rename has moved the file.
			_ = f.Close()
			_ = os.Remove(tmp)
		}()
		sink := repro.NewJSONLSink(f)
		cfg.Sink = sink
		commitEvents = func() error {
			if err := sink.Flush(); err != nil {
				return fmt.Errorf("event trace: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("event trace: %w", err)
			}
			return os.Rename(tmp, o.events)
		}
	}

	res, err := repro.SimulateContext(ctx, s, a, cfg)
	if err != nil {
		return err
	}
	if commitEvents != nil {
		if err := commitEvents(); err != nil {
			return err
		}
	}

	schedulable := repro.RPatternSchedulable(s)
	if o.jsonOut {
		return printIndented(stdout, serve.RunDocOf(s, sc, o.seed, schedulable, res))
	}

	fmt.Fprintf(stdout, "task set (total utilization %.3f, (m,k)-utilization %.3f):\n%s\n",
		s.Utilization(), s.MKUtilization(), s)
	if !schedulable {
		fmt.Fprintln(stdout, "warning: set is NOT R-pattern schedulable; (m,k)-deadlines are not guaranteed")
	}
	fmt.Fprintf(stdout, "\n%s over %v (%s):\n", res.Policy, res.Horizon, sc)
	fmt.Fprintf(stdout, "  active energy: %.3f   total energy (incl. idle/sleep): %.3f\n",
		res.ActiveEnergy(), res.TotalEnergy())
	for p, pt := range res.Counters.Proc {
		name := [...]string{"primary", "spare"}[p]
		fmt.Fprintf(stdout, "  %-7s busy %v, idle %v, asleep %v, dead %v\n",
			name, pt.Busy, pt.Idle, pt.Sleep, pt.Dead)
	}
	c := res.Counters
	fmt.Fprintf(stdout, "  jobs: %d released, %d mandatory, %d optional selected, %d skipped, %d demotions\n",
		c.Released, c.MandatoryJobs, c.OptionalSelected, c.OptionalSkipped, c.Demotions)
	fmt.Fprintf(stdout, "  backups: %d created, %d canceled clean, %d canceled partial\n",
		c.BackupsCreated, c.BackupsCanceledClean, c.BackupsCanceledPartial)
	fmt.Fprintf(stdout, "  outcomes: %d effective, %d misses, %d transient faults\n",
		c.Effective, c.Misses, c.TransientFaults)
	if pf := res.PermanentFault; pf != nil {
		fmt.Fprintf(stdout, "  permanent fault: processor %d at %v\n", pf.Proc, pf.At)
	}
	fmt.Fprintf(stdout, "  (m,k) satisfied: %v\n", res.MKSatisfied())
	if !res.MKSatisfied() {
		for i, v := range res.ViolationAt {
			if v >= 0 {
				fmt.Fprintf(stdout, "    tau%d violates at job %d\n", i+1, v+1)
			}
		}
	}
	if trace {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, repro.GanttChart(res))
	}
	if o.perTask {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.PerTaskTable())
	}
	if o.segments {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, repro.TraceSummary(res))
	}
	return nil
}

// runEstimate answers the query from the analytical twin: closed-form
// schedulability and energy with no discrete-event run. With -json it
// prints the same mkss-estimate/v1 document GET /v1/estimate serves.
func runEstimate(s *repro.Set, a repro.Approach, sc repro.Scenario, o options, stdout io.Writer) error {
	ans, err := estimate.NewTwin(repro.NewRunner(repro.RunnerConfig{})).Estimate(estimate.Request{
		Set: s, Approach: a, Scenario: sc, Seed: o.seed, HorizonMS: o.horizonMS,
	})
	if err != nil {
		return err
	}
	if o.jsonOut {
		return printIndented(stdout, serve.EstimateDocOf(s, sc, o.seed, ans, 0))
	}
	fmt.Fprintf(stdout, "%s estimate over %v (%s), backend twin — estimated (closed-form twin):\n",
		ans.Policy, ans.Horizon, sc)
	fmt.Fprintf(stdout, "  R-pattern schedulable: %v   (m,k) predicted: %v\n", ans.Schedulable, ans.MKPredicted)
	fmt.Fprintf(stdout, "  active energy: %.3f   total energy (incl. idle/sleep): %.3f\n",
		ans.ActiveEnergy, ans.TotalEnergy)
	return nil
}

// printIndented prints doc as indented JSON on w.
func printIndented(w io.Writer, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
