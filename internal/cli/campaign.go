// Package cli is the campaign flag surface shared by the libspector,
// libreport, and fleetscan commands: every flag two of them accept is
// defined here once — name, help text, and default — together with its
// mapping onto libspector.Config, the shared validation, the telemetry
// and event-log setup, and the -shard-index child mode — plus the report
// pieces the commands print alike: the figures and the degradation
// ledger.
package cli

import (
	"context"
	"flag"
	"fmt"

	"libspector"
	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/obs"
)

// Defaults are the campaign-flag defaults that differ per command.
type Defaults struct {
	Apps    int
	Workers int
}

// Campaign holds the parsed campaign flags. A flag that sets a
// libspector.Config field parses straight into Config, which starts as
// libspector.DefaultConfig, so a flag a command does not register leaves
// its field at the library default; the other flags have fields of their
// own (-shards defaults to 1 and -shard-index to -1 even unregistered).
type Campaign struct {
	Config       libspector.Config
	Top          int
	FaultClasses string
	MetricsAddr  string
	EventsOut    string
	TraceOut     string
	Shards       int
	ShardIndex   int
	ShardOut     string
}

// Register defines the named campaign flags on fs and returns the
// Campaign they parse into. A command registers exactly the flags it
// accepts; an unknown name is a programming error and panics.
func Register(fs *flag.FlagSet, d Defaults, names ...string) *Campaign {
	c := &Campaign{Config: libspector.DefaultConfig(), Shards: 1, ShardIndex: -1}
	cfg := &c.Config
	for _, name := range names {
		switch name {
		case "apps":
			fs.IntVar(&cfg.Apps, name, d.Apps, "number of apps in the corpus")
		case "seed":
			fs.Uint64Var(&cfg.Seed, name, 42, "experiment seed")
		case "workers":
			fs.IntVar(&cfg.Workers, name, d.Workers, "parallel workers (0 = GOMAXPROCS)")
		case "top":
			fs.IntVar(&c.Top, name, 15, "entries in the Figure 3 rankings")
		case "artifacts":
			fs.StringVar(&cfg.ArtifactDir, name, "", "persist per-run raw evidence (apk/pcap/reports/trace) into this directory")
		case "journal":
			fs.StringVar(&cfg.Journal, name, "", "append a checksummed write-ahead log of campaign progress to this file")
		case "resume":
			fs.BoolVar(&cfg.Resume, name, false, "replay the -journal log and continue the campaign instead of restarting (requires the same -artifacts store)")
		case "continue-on-error":
			fs.BoolVar(&cfg.ContinueOnError, name, false, "keep the fleet running past individual app failures")
		case "run-timeout":
			fs.DurationVar(&cfg.RunTimeout, name, 0, "per-run attempt deadline (0 = none)")
		case "max-attempts":
			fs.IntVar(&cfg.MaxAttempts, name, 1, "run attempts per app before giving up (retries with backoff)")
		case "retry-backoff":
			fs.DurationVar(&cfg.RetryBackoff, name, 0, "base backoff between attempts, doubled per retry (charged to a virtual clock)")
		case "fault-rate":
			fs.Float64Var(&cfg.FaultRate, name, 0, "fraction of apps hit by an injected fault on their first attempt [0,1]")
		case "fault-poison":
			fs.Float64Var(&cfg.FaultPoisonRate, name, 0, "fraction of faulted apps whose fault repeats on every attempt [0,1]")
		case "fault-classes":
			fs.StringVar(&c.FaultClasses, name, "", "comma-separated fault classes to inject (default all): emulator-abort,stall-run,capture-truncate,datagram-drop,hook-fault; opt-in crash classes: journal-crash,journal-tear,artifact-flip")
		case "metrics-addr":
			fs.StringVar(&c.MetricsAddr, name, "", "serve the live ops endpoint (dashboard at /, SSE events at /events, JSON snapshot at /debug/vars, pprof) on this address while the fleet runs")
		case "events-out":
			fs.StringVar(&c.EventsOut, name, "", "write the campaign's deterministic event log as JSONL to this file after the run")
		case "trace-out":
			fs.StringVar(&c.TraceOut, name, "", "write per-run span traces as JSONL to this file after the fleet")
		case "shards":
			fs.IntVar(&c.Shards, name, 1, "split the campaign into N shards and merge their outcomes (byte-identical to -shards 1 when -workers >= N)")
		case "shard-index":
			fs.IntVar(&c.ShardIndex, name, -1, "child mode: run only this shard of the -shards split and write its outcome to -shard-out instead of reporting")
		case "shard-out":
			fs.StringVar(&c.ShardOut, name, "", "child mode: shard outcome file (ledger, snapshot, encoded partial) for the parent to merge")
		case "coordinator-wal":
			fs.StringVar(&cfg.CoordinatorWAL, name, "", "coordinator write-ahead log for crash-safe -shards supervision: a killed campaign re-run with -resume verifies sealed shard outcomes and continues without resetting the takeover budget")
		default:
			panic("cli: unknown campaign flag -" + name)
		}
	}
	return c
}

// Resolve validates the parsed flags and returns the experiment config
// they describe.
func (c *Campaign) Resolve() (libspector.Config, error) {
	cfg := c.Config
	if cfg.Resume && cfg.Journal == "" {
		return cfg, fmt.Errorf("-resume requires -journal")
	}
	if cfg.CoordinatorWAL != "" && c.Shards <= 1 {
		return cfg, fmt.Errorf("-coordinator-wal requires -shards > 1")
	}
	classes, err := faults.ParseClasses(c.FaultClasses)
	if err != nil {
		return cfg, err
	}
	cfg.FaultClasses = classes
	return cfg, nil
}

// Observer is a command's telemetry: the registry the experiment
// reports into, the deterministic event log behind -events-out, and the
// live ops endpoint behind -metrics-addr.
type Observer struct {
	Tel *obs.Telemetry
	// Events records the deterministic event log (nil without
	// -events-out).
	Events    *obs.EventLog
	eventsOut string
	ops       *obs.OpsServer
}

// Observe builds the telemetry. It is virtual by default, so same-flag
// runs stay byte-identical; -metrics-addr switches to wall-clock
// telemetry, which adds the wall-only series to the snapshot, and serves
// the ops endpoint until Close. The event bus exists only when something
// consumes it — the SSE stream or -events-out — so an unobserved run
// never pays for publishing.
func (c *Campaign) Observe() (*Observer, error) {
	o := &Observer{Tel: obs.NewVirtual(nil), eventsOut: c.EventsOut}
	if c.MetricsAddr != "" {
		o.Tel = obs.New()
	}
	if c.MetricsAddr != "" || c.EventsOut != "" {
		o.Tel.SetBus(obs.NewBus(o.Tel.Metrics()))
		if c.EventsOut != "" {
			o.Events = obs.NewEventLog()
			o.Events.AttachTo(o.Tel.Bus())
		}
	}
	if c.MetricsAddr != "" {
		ops, err := obs.ServeOps(c.MetricsAddr, o.Tel.Metrics(), o.Tel.Bus())
		if err != nil {
			return nil, fmt.Errorf("starting ops endpoint: %w", err)
		}
		o.ops = ops
		fmt.Printf("Ops endpoint live on http://%s/ (dashboard; /events SSE, /debug/vars, /debug/pprof).\n", ops.Addr())
	}
	return o, nil
}

// Close stops the ops endpoint, if one is serving. The process is about
// to exit, so a failed shutdown has nothing left to report to.
func (o *Observer) Close() {
	if o.ops != nil {
		_ = o.ops.Close()
	}
}

// WriteEvents writes the event log to -events-out, if one was requested.
// A nil Observer (a command that built no telemetry) writes nothing.
func (o *Observer) WriteEvents() error {
	if o == nil || o.Events == nil {
		return nil
	}
	if err := o.Events.WriteFile(o.eventsOut); err != nil {
		return fmt.Errorf("writing event log: %w", err)
	}
	fmt.Printf("Wrote %d events to %s.\n", o.Events.Len(), o.eventsOut)
	return nil
}

// RunShardChild is the -shard-index mode: run exactly one shard of the
// -shards split and write its outcome to -shard-out for the parent to
// merge (dispatch.MergeOutcomes).
func (c *Campaign) RunShardChild(ctx context.Context, cfg libspector.Config) error {
	if c.ShardOut == "" {
		return fmt.Errorf("-shard-index requires -shard-out")
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	out, err := exp.RunShard(ctx, c.ShardIndex, c.Shards)
	if err != nil {
		return err
	}
	if err := dispatch.WriteShardOutcome(c.ShardOut, out); err != nil {
		return err
	}
	fmt.Printf("Shard %d/%d done: apps [%d,%d) -> %s\n", c.ShardIndex, c.Shards, out.Range.Lo, out.Range.Hi, c.ShardOut)
	return nil
}
