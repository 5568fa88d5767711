// fleetscan drives the parallel analysis fleet the way the paper's data
// collection framework does (§II-B3): a dispatcher hands apps to workers,
// each worker runs a fresh emulator image, supervisor reports travel over
// a real loopback UDP collector, and apks round-trip through the database
// server with the §III-A selection policy.
//
// The fleet runs as a streaming pipeline: a progress sink prints per-app
// events as workers complete them, and Ctrl-C reports whatever finished
// before the interrupt instead of discarding the run.
//
// With -shards N the campaign runs as N separate worker processes
// supervised by a dispatch.Coordinator: the parent re-executes itself once
// per shard (-shard-index/-shard-out) in its own process group, probes each
// child's /healthz endpoint with hysteresis, watches the apps-completed
// watermark for live-but-stuck shards (-stall-deadline), re-spawns dead
// shards with -resume so they take over from their journal, and merges the
// shard outcome files into one campaign report. With -coordinator-wal the
// parent itself is crash-safe: a killed coordinator re-run with -resume
// verifies sealed shard outcomes and resumes the campaign without resetting
// the takeover budget. -chaos-seed/-chaos-kill SIGKILL real shard children
// (and the coordinator, mid-campaign) at deterministic points to prove the
// resumed run converges byte-for-byte.
//
//	go run ./examples/fleetscan [-apps 40] [-workers 4]
//	go run ./examples/fleetscan -apps 40 -shards 4 -journal wal -artifacts evidence
//	go run ./examples/fleetscan -apps 40 -shards 4 -journal wal -chaos-seed 7 -chaos-kill 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"libspector"
	"libspector/internal/cli"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fleetscan:", err)
		os.Exit(1)
	}
}

// progress is a dispatch.Sink printing a live line per stream event.
type progress struct {
	done int
}

func (p *progress) Consume(ev dispatch.RunEvent) error {
	switch ev.Kind {
	case dispatch.EventRun:
		p.done++
		fmt.Printf("  [%3d done] app %d: %s (%d flows)\n",
			p.done, ev.AppIndex, ev.Run.AppPackage, len(ev.Run.Flows))
	case dispatch.EventSkip:
		fmt.Printf("  [   skip ] app %d: ARM-only (§III-A ABI filter)\n", ev.AppIndex)
	case dispatch.EventFailure:
		fmt.Printf("  [   fail ] app %d: %v\n", ev.AppIndex, ev.Err)
	case dispatch.EventQuarantine:
		fmt.Printf("  [quarant.] app %d after %d attempts: %v\n",
			ev.AppIndex, ev.Quarantine.Attempts, ev.Err)
	}
	return nil
}

// inheritedArgs reconstructs the explicitly-set command-line flags so a
// child shard process sees the same campaign configuration as the
// parent. Orchestration and supervision flags are owned by the parent
// and re-issued per child; -resume is appended only on takeover (or a
// whole-campaign resume), so it is excluded here too.
func inheritedArgs(fs *flag.FlagSet) []string {
	var args []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shards", "shard-index", "shard-out", "probe-base-port", "metrics-addr",
			"resume", "events-out", "coordinator-wal", "stall-deadline", "probe-strikes",
			"chaos-seed", "chaos-kill", "chaos-kill-after":
			return
		}
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	return args
}

// spawnShard runs one shard incarnation as a child process and waits
// for it. Children live in their own process group with SIGKILL parent
// death signaling, so a dying parent — panicking, SIGKILLed by chaos —
// never leaves orphan shard processes (or their ops-port listeners)
// behind, and a cancelled shard context kills the whole group.
func spawnShard(ctx context.Context, self string, task dispatch.ShardTask, outPath string, o *options, inherited []string, plan *faults.ProcPlan) error {
	args := append([]string(nil), inherited...)
	args = append(args, fmt.Sprintf("-shards=%d", o.Shards), fmt.Sprintf("-shard-index=%d", task.Index), "-shard-out="+outPath)
	if o.Config.Resume || task.Attempt > 0 {
		args = append(args, "-resume")
	}
	if o.EventsOut != "" {
		// Each child records its own shard's log; the parent owns the flag
		// and re-issues it suffixed so children never clobber one file.
		args = append(args, fmt.Sprintf("-events-out=%s.shard-%03d", o.EventsOut, task.Index))
	}
	if o.probeBase > 0 {
		args = append(args, fmt.Sprintf("-metrics-addr=127.0.0.1:%d", o.probeBase+task.Index))
	}
	if after, ok := plan.ShardKillAfter(task.Index, task.Attempt); ok {
		fmt.Printf("  [chaos] shard %d will SIGKILL itself after %d runs\n", task.Index, after)
		args = append(args, fmt.Sprintf("-chaos-kill-after=%d", after))
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{
		// Own process group: killing the shard kills everything it
		// spawned, and a chaos kill of THIS parent delivers SIGKILL to
		// the child via Pdeathsig instead of orphaning it.
		Setpgid:   true,
		Pdeathsig: syscall.SIGKILL,
	}
	cmd.Cancel = func() error {
		// Group kill (negative pid): the probe/stall watcher cancelling
		// the shard context must reap the child's whole tree.
		return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	return cmd.Run()
}

// runShardProcesses is the -shards parent: a dispatch.Coordinator whose
// runner spawns one child process per shard attempt. The coordinator
// supplies liveness (probe hysteresis + stall watermark against each
// child's ops endpoint), journal-backed takeover of dead children, and
// — when a coordinator WAL is configured — crash-safe resume of the
// parent itself: re-run after a parent kill with -resume and sealed
// shard outcomes are verified and reused, in-flight shards resume from
// their journals, and the takeover budget picks up where it stopped.
func runShardProcesses(ctx context.Context, cfg libspector.Config, o *options, inherited []string) (*dispatch.CampaignOutcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "fleetscan-shards-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	n := o.Shards
	// The seeded chaos schedule applies only to a fresh campaign: the
	// resumed incarnation runs clean, which is what lets the chaos smoke
	// assert convergence to the uninterrupted run instead of dying
	// forever.
	var plan *faults.ProcPlan
	if o.chaosKill > 0 && !cfg.Resume {
		plan = faults.NewProcPlan(o.chaosSeed, n, o.chaosKill)
	}

	fmt.Printf("Scanning %d apps as %d shard processes...\n", cfg.Apps, n)
	coord := &dispatch.Coordinator{
		Plan: dispatch.ShardPlan{TotalApps: cfg.Apps, Shards: n},
		Run: func(cctx context.Context, task dispatch.ShardTask) (*dispatch.ShardOutcome, error) {
			// Per-incarnation outcome files: a half-written file from a
			// killed child must never be confused with the retry's.
			outPath := filepath.Join(dir, fmt.Sprintf("shard-%03d.attempt-%03d.json", task.Index, task.Attempt))
			if task.Attempt > 0 {
				fmt.Printf("  [takeover] shard %d re-spawning with -resume (attempt %d)\n", task.Index, task.Attempt)
			}
			if err := spawnShard(cctx, self, task, outPath, o, inherited, plan); err != nil {
				return nil, err
			}
			return dispatch.ReadShardOutcome(outPath)
		},
		// The parent narrates shard-process lifecycle on its own bus so a
		// dashboard attached to the parent's ops endpoint shows the
		// fleet's liveness grid even though the runs happen in children.
		Tel: cfg.Telemetry,
	}
	if cfg.Journal != "" {
		// Journal replay makes takeover cheap; without a journal a
		// re-spawned shard would redo (and double-count) every run, so
		// the budget stays zero and a shard death fails the campaign.
		coord.MaxTakeovers = cfg.Apps
	}
	if o.probeBase > 0 {
		addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", o.probeBase+i) }
		coord.Probe = func(i int) error { return obs.ProbeHealthz(addr(i), time.Second) }
		coord.ProbeInterval = 500 * time.Millisecond
		coord.ProbeStrikes = o.probeStrikes
		if o.stallDeadline > 0 {
			coord.Progress = func(i int) (int64, error) { return obs.FetchProgress(addr(i), time.Second) }
			coord.StallDeadline = o.stallDeadline
		}
	}
	coord.WAL = cfg.CoordinatorWAL
	if coord.WAL == "" && cfg.Journal != "" {
		coord.WAL = cfg.Journal + ".coordinator"
	}
	if coord.WAL != "" {
		coord.Resume = cfg.Resume
		coord.Fingerprint = cfg.Fingerprint()
		if plan != nil {
			kill := plan.CoordinatorKillRecord()
			coord.WALObserver = func(records int) {
				if records == kill {
					fmt.Printf("  [chaos] coordinator at WAL record %d — SIGKILLing itself mid-campaign\n", records)
					faults.KillSelf()
				}
			}
		}
	}

	return coord.Execute(ctx)
}

// mergeShardEvents assembles the campaign's single deterministic event
// log from the per-child shard logs plus the parent's own logged events
// (campaign.done). Shard ranges are contiguous and ascending and each
// child log is already in canonical order, so concatenation in shard
// order IS the canonical order — the file comes out byte-identical to a
// single-process same-seed run's -events-out.
func mergeShardEvents(eventsOut string, n int, evlog *obs.EventLog) error {
	f, err := os.Create(eventsOut)
	if err != nil {
		return fmt.Errorf("writing event log: %w", err)
	}
	defer f.Close()
	total := 0
	for i := 0; i < n; i++ {
		data, err := os.ReadFile(fmt.Sprintf("%s.shard-%03d", eventsOut, i))
		if err != nil {
			return fmt.Errorf("merging shard event logs: %w", err)
		}
		for _, b := range data {
			if b == '\n' {
				total++
			}
		}
		if _, err := f.Write(data); err != nil {
			return fmt.Errorf("merging shard event logs: %w", err)
		}
	}
	if err := evlog.WriteJSONL(f); err != nil {
		return fmt.Errorf("merging shard event logs: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing event log: %w", err)
	}
	fmt.Printf("Wrote %d events to %s.\n", total+evlog.Len(), eventsOut)
	return nil
}

// options is the command's parsed flag set: the shared campaign flags
// plus the process supervision and chaos flags only fleetscan has.
type options struct {
	*cli.Campaign
	probeBase, probeStrikes int
	stallDeadline           time.Duration
	chaosSeed               uint64
	chaosKill               int
}

// newFlags defines the command's flags.
func newFlags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("fleetscan", flag.ContinueOnError)
	o := &options{Campaign: cli.Register(fs, cli.Defaults{Apps: 40, Workers: 4},
		"apps", "workers", "seed", "fault-rate", "fault-poison", "max-attempts",
		"artifacts", "journal", "resume", "run-timeout", "retry-backoff",
		"metrics-addr", "events-out", "trace-out", "shards", "shard-index",
		"shard-out", "coordinator-wal")}
	fs.IntVar(&o.probeBase, "probe-base-port", 0, "liveness: child shard i serves /healthz on 127.0.0.1:(port+i) and the parent kills shards that stop answering (0 = off)")
	fs.IntVar(&o.probeStrikes, "probe-strikes", 3, "consecutive failed /healthz probes before a shard is declared dead (transient timeouts don't burn takeover budget)")
	fs.DurationVar(&o.stallDeadline, "stall-deadline", 0, "declare a live shard dead when its apps-completed watermark (/debug/vars) stops advancing for this long (0 = off; needs -probe-base-port)")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "seed for the deterministic process-level chaos schedule")
	fs.IntVar(&o.chaosKill, "chaos-kill", 0, "chaos: SIGKILL this many shard children mid-run, plus the coordinator itself mid-campaign when a WAL is active; re-run with -resume to converge")
	fs.IntVar(&o.Config.ChaosKillAfterRuns, "chaos-kill-after", 0, "child mode: SIGKILL this shard process after N terminal run outcomes (issued by the parent's chaos schedule)")
	return fs, o
}

func run(ctx context.Context, args []string) error {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := o.Resolve()
	if err != nil {
		return err
	}
	if o.chaosKill > 0 && cfg.Journal == "" {
		// Killed shards can only be taken over from their journals;
		// chaos without one would just fail the campaign.
		return fmt.Errorf("-chaos-kill requires -journal")
	}
	cfg.UseCollector = true // real UDP collection server
	cfg.UseStore = true     // database-server round trip per apk
	if cfg.FaultRate > 0 {
		// A faulted fleet must keep going and retry; otherwise the first
		// injected fault would abort the whole scan.
		cfg.ContinueOnError = true
		if cfg.MaxAttempts < 2 {
			cfg.MaxAttempts = 2
		}
		if cfg.RunTimeout == 0 {
			// Generous next to a normal sub-second run, but short enough
			// that a stalled demo app doesn't dominate the fleet's wall time.
			cfg.RunTimeout = 10 * time.Second
		}
	}

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
	var merged *dispatch.CampaignOutcome
	if sharded {
		if merged, err = runShardProcesses(ctx, cfg, o, inheritedArgs(fs)); err != nil {
			return err
		}
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	// Fleet counts, collector datagram totals, and attribution joins all
	// come from the telemetry snapshot (merged across shard processes);
	// only derived analysis figures keep bespoke lines below.
	if sharded {
		res, err := exp.FinishCampaign(merged, o.Shards)
		if err != nil {
			return err
		}
		acct := res.Accounting
		fmt.Printf("Merged %d shard outcomes: %d runs, %d skipped, %d failed, %d quarantined (%d process takeovers).\n",
			o.Shards, acct.Completed, acct.SkippedARMOnly, acct.Failed, acct.Quarantined, res.Takeovers)
		fmt.Println()
		fmt.Println(obs.Render(res.Snapshot))
		cli.PrintLedger(acct, res.Failures, res.Quarantined)
	} else {
		fmt.Printf("Scanning %d apps with %d workers (UDP collector + apk store enabled)...\n", cfg.Apps, cfg.Workers)
		if err := exp.RunContext(ctx, &progress{}); err != nil {
			if ctx.Err() == nil || exp.Result() == nil {
				return err
			}
			fmt.Println("Interrupted — reporting the completed prefix of the fleet.")
		}
		res := exp.Result()
		fmt.Printf("Fleet finished in %s.\n", res.Elapsed.Round(1e6))
		fmt.Println()
		fmt.Println(obs.Render(ob.Tel.Metrics().Snapshot()))
		cli.PrintLedger(res.Accounting, res.Failures, res.Quarantined)
	}

	// Aggregates come from the streaming fold — no per-flow records were
	// retained to produce them.
	ag := exp.Aggregates()
	totals := ag.ComputeTotals()
	fmt.Printf("  traffic:             %.2f MB over %d flows to %d domains\n",
		float64(totals.TotalBytes())/1e6, totals.Flows, totals.DistinctDomains)
	fmt.Printf("  origin-libraries:    %d\n", totals.DistinctOrigins)
	fmt.Printf("  mean method coverage: %.1f%% (paper: 9.5%%)\n", ag.Fig10Coverage().Mean)
	fmt.Printf("  advertisement share:  %.1f%% of bytes (paper: 28.3%%)\n",
		100*ag.Fig2CategoryTransfer().LegendShare[corpus.LibAdvertisement])
	if sharded {
		if ob.Events != nil {
			// Process mode owns its event-log assembly: child shard logs
			// concatenated in shard order, then the parent's campaign.done.
			return mergeShardEvents(o.EventsOut, o.Shards, ob.Events)
		}
		return nil
	}

	// Per-run join health: in a correct pipeline every flow matches a
	// supervisor report and checksums all verify.
	var unmatchedFlows, unmatchedReports, mismatches int
	for _, run := range exp.Result().Runs {
		unmatchedFlows += run.Join.UnmatchedFlows
		unmatchedReports += run.Join.UnmatchedReports
		mismatches += run.Join.ChecksumMismatch
	}
	fmt.Printf("  join health: %d unmatched flows, %d unmatched reports, %d checksum mismatches\n",
		unmatchedFlows, unmatchedReports, mismatches)
	if o.TraceOut != "" {
		if err := ob.Tel.Tracer().WriteFile(o.TraceOut); err != nil {
			return fmt.Errorf("writing traces: %w", err)
		}
		fmt.Printf("  wrote %d spans to %s\n", ob.Tel.Tracer().SpanCount(), o.TraceOut)
	}
	return ob.WriteEvents()
}
