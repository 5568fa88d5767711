// Command libspector runs the full measurement pipeline end-to-end:
// generate the synthetic app corpus, exercise every app in the emulated
// fleet under monkey, attribute traffic to origin-libraries, and print
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	libspector [-apps N] [-seed S] [-workers W] [-events E] [-collector] [-store]
//	           [-journal campaign.wal] [-resume]
//	           [-metrics-addr :8321] [-trace-out traces.jsonl] [-events-out events.jsonl]
//	libspector audit -artifacts DIR [-journal campaign.wal]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"libspector"
	"libspector/internal/cli"
	"libspector/internal/dispatch"
	"libspector/internal/journal"
	"libspector/internal/obs"
	"libspector/internal/report"
)

// runAudit implements "libspector audit": verify every stored run's
// evidence (apk checksum, reports framing, meta integrity) and, when a
// journal is given, cross-check each journaled completion against the
// store. Exits non-zero when anything fails verification, so the command
// slots into scripts as a pre-resume gate.
func runAudit(args []string) error {
	fs := flag.NewFlagSet("libspector audit", flag.ContinueOnError)
	dir := fs.String("artifacts", "", "artifact store directory to audit (required)")
	journalPath := fs.String("journal", "", "campaign journal to cross-check against the store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("audit: -artifacts is required")
	}
	store, err := dispatch.NewArtifactStore(*dir)
	if err != nil {
		return err
	}
	rep, err := store.Audit()
	if err != nil {
		return err
	}
	fmt.Printf("Audited %d stored runs: %d ok, %d corrupt, %d incomplete.\n",
		len(rep.OK)+len(rep.Corrupt), len(rep.OK), len(rep.Corrupt), len(rep.Incomplete))
	for _, e := range rep.Corrupt {
		fmt.Printf("  corrupt    %s: %v\n", e.SHA, e.Err)
	}
	for _, sha := range rep.Incomplete {
		fmt.Printf("  incomplete %s\n", sha)
	}
	var unbacked int
	if *journalPath != "" {
		replay, err := journal.Read(*journalPath)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		if replay.TornBytes > 0 {
			fmt.Printf("Journal has a torn %d-byte tail (crash mid-append; resume truncates it).\n", replay.TornBytes)
		}
		apps := make([]int, 0, len(replay.Outcomes))
		for app := range replay.Outcomes {
			apps = append(apps, app)
		}
		sort.Ints(apps)
		var completed int
		for _, app := range apps {
			rec := replay.Outcomes[app]
			if rec.Outcome != journal.OutcomeRun || rec.ArtifactSHA == "" {
				continue
			}
			completed++
			if err := store.Verify(rec.ArtifactSHA); err != nil {
				unbacked++
				fmt.Printf("  journal app %d: evidence %s fails verification: %v\n", app, rec.ArtifactSHA, err)
			}
		}
		fmt.Printf("Cross-checked %d journaled completions against the store; %d lack intact evidence.\n",
			completed, unbacked)
	}
	if !rep.Clean() || unbacked > 0 {
		return fmt.Errorf("audit: %d corrupt, %d incomplete, %d journaled runs without intact evidence",
			len(rep.Corrupt), len(rep.Incomplete), unbacked)
	}
	fmt.Println("Store is clean.")
	return nil
}

func main() {
	// SIGINT/SIGTERM cancel the fleet context: workers stop within one
	// in-flight app and whatever completed is still reported below. A
	// second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "libspector:", err)
		os.Exit(1)
	}
}

// options is the command's parsed flag set: the shared campaign flags
// plus the world and transport knobs only this command exposes.
type options struct {
	*cli.Campaign
	throttleMS int
}

// newFlags defines the command's flags.
func newFlags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("libspector", flag.ContinueOnError)
	o := &options{Campaign: cli.Register(fs, cli.Defaults{Apps: 300, Workers: 0},
		"apps", "seed", "workers", "top", "artifacts", "journal", "resume",
		"continue-on-error", "run-timeout", "max-attempts", "retry-backoff",
		"fault-rate", "fault-poison", "fault-classes", "metrics-addr",
		"events-out", "trace-out", "shards", "shard-index", "shard-out",
		"coordinator-wal")}
	cfg := &o.Config
	fs.IntVar(&cfg.MonkeyEvents, "events", 1000, "monkey events per app")
	fs.IntVar(&o.throttleMS, "throttle", 500, "monkey throttle between events (ms, virtual)")
	fs.BoolVar(&cfg.UseCollector, "collector", false, "route supervisor reports through a real UDP collector")
	fs.BoolVar(&cfg.UseStore, "store", false, "round-trip apks through the database server")
	fs.Float64Var(&cfg.DomainScale, "domain-scale", 0.05, "fraction of the paper's 14,140-domain universe")
	fs.Float64Var(&cfg.MethodScale, "method-scale", 0.03, "fraction of the paper's 49,138 mean methods per apk")
	fs.Float64Var(&cfg.VolumeScale, "volume-scale", 1.0, "traffic volume scale (1.0 = paper's ~1.23 MB/app)")
	return fs, o
}

func run(ctx context.Context, args []string) error {
	if len(args) > 0 && args[0] == "audit" {
		return runAudit(args[1:])
	}
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := o.Resolve()
	if err != nil {
		return err
	}
	cfg.Throttle = time.Duration(o.throttleMS) * time.Millisecond

	ob, err := o.Observe()
	if err != nil {
		return err
	}
	defer ob.Close()
	cfg.Telemetry = ob.Tel
	if o.ShardIndex >= 0 {
		if err := o.RunShardChild(ctx, cfg); err != nil {
			return err
		}
		return ob.WriteEvents()
	}

	sharded := o.Shards > 1
	if sharded {
		fmt.Printf("Generating world (seed=%d, %d apps) and running %d shards...\n", cfg.Seed, cfg.Apps, o.Shards)
	} else {
		fmt.Printf("Generating world (seed=%d, %d apps) and running the fleet...\n", cfg.Seed, cfg.Apps)
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	var snap obs.Snapshot
	if sharded {
		res, err := exp.RunSharded(ctx, o.Shards)
		if err != nil {
			return err
		}
		fmt.Printf("Sharded fleet done in %s: %d runs across %d shards (%d takeovers), %d ARM-only apps skipped.\n",
			time.Since(start).Round(time.Millisecond), res.Accounting.Completed, res.Shards, res.Takeovers, res.Accounting.SkippedARMOnly)
		cli.PrintLedger(res.Accounting, res.Failures, res.Quarantined)
		snap = res.Snapshot
	} else {
		if err := exp.RunContext(ctx); err != nil {
			if ctx.Err() == nil || exp.Dataset() == nil {
				return err
			}
			// Interrupted mid-fleet: the streaming accumulator already holds
			// everything that completed, so report the partial view.
			fmt.Printf("Interrupted after %s — reporting partial aggregates over %d completed runs.\n",
				time.Since(start).Round(time.Millisecond), len(exp.Result().Runs))
		} else {
			fmt.Printf("Fleet done in %s: %d runs, %d ARM-only apps skipped.\n",
				time.Since(start).Round(time.Millisecond), len(exp.Result().Runs), exp.Result().SkippedARMOnly)
		}
		res := exp.Result()
		cli.PrintLedger(res.Accounting, res.Failures, res.Quarantined)
		snap = ob.Tel.Metrics().Snapshot()
	}
	// The fleet, collector, and attribution series all render from the one
	// telemetry snapshot (merged across shards on a sharded run).
	fmt.Println()
	fmt.Println(obs.Render(snap))
	if o.TraceOut != "" && !sharded {
		// Span traces live in the campaign registry; shards keep their own.
		if err := ob.Tel.Tracer().WriteFile(o.TraceOut); err != nil {
			return fmt.Errorf("writing traces: %w", err)
		}
		fmt.Printf("Wrote %d spans to %s.\n", ob.Tel.Tracer().SpanCount(), o.TraceOut)
	}
	fmt.Println()

	// Figures and tables render from the streaming aggregates; the batch
	// dataset (byte-identical on a clean run) backs the record-level E4
	// baselines, which a sharded campaign never materializes.
	ds := exp.Dataset()
	for _, id := range cli.Figures {
		if id == "E4" && ds == nil {
			continue
		}
		fig, err := cli.Figure(exp, exp.Aggregates(), ds, id, o.Top)
		if err != nil {
			return err
		}
		fmt.Println(fig)
	}
	fmt.Println(report.PaperComparison(exp.Aggregates().CompareWithPaper()))
	return ob.WriteEvents()
}
