package libspector

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"libspector/internal/analysis"
	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
)

// CampaignResult is the merged outcome of a sharded campaign: one
// Accounting ledger covering the whole corpus, the concatenated failure
// and quarantine records, the merged telemetry snapshot, and the figures
// finished from the merged shard partials. For any shard count N (with
// Workers >= N) it is byte-identical — figures, ledger, snapshot — to
// the uninterrupted single-process run of the same config.
type CampaignResult struct {
	Accounting  dispatch.Accounting
	Failures    []dispatch.RunFailure
	Quarantined []dispatch.QuarantinedApp
	Snapshot    obs.Snapshot
	Aggregates  *analysis.Aggregates
	// Takeovers counts shard re-launches the coordinator consumed
	// (0 on a healthy campaign).
	Takeovers int
	// Shards is the shard count the campaign ran with.
	Shards int
}

// ShardJournalPath derives shard index's journal path from the campaign
// journal base path.
func ShardJournalPath(base string, index int) string {
	return fmt.Sprintf("%s.shard-%03d", base, index)
}

// ShardArtifactDir derives shard index's artifact directory from the
// campaign artifact base directory.
func ShardArtifactDir(base string, index int) string {
	return filepath.Join(base, fmt.Sprintf("shard-%03d", index))
}

// resolvedWorkers is the campaign worker budget after defaulting — the
// same defaulting dispatch.Stream applies, hoisted here so the shard
// plan can split the budget it would actually have used.
func (e *Experiment) resolvedWorkers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shardPlan splits this experiment's corpus and worker budget.
func (e *Experiment) shardPlan(shards int) dispatch.ShardPlan {
	return dispatch.ShardPlan{TotalApps: e.apps, Shards: shards, Workers: e.resolvedWorkers()}
}

// RunSharded executes the campaign as N in-process shards under a
// dispatch.Coordinator and merges the results. Each shard runs its
// contiguous app-index range with its own collector, telemetry registry,
// journal (Config.Journal + ".shard-NNN"), and artifact store
// (Config.ArtifactDir + "/shard-NNN"); the synthetic world, detector,
// and domain service are shared, which is safe because all three are
// concurrency-safe and — crucially — their figure-shaping outputs do not
// depend on observation order.
//
// A shard that dies (a crash-class fault, a cancelled context from a
// liveness probe) is taken over: it is re-launched and resumes from its
// journal, replaying completed apps from the artifact store, so the
// campaign result is byte-identical to an uninterrupted run. Takeover
// replay requires Config.Journal and Config.ArtifactDir to be set.
//
// Like RunContext, RunSharded finalizes the detector and must not be
// called twice or concurrently with other runs on the same Experiment.
func (e *Experiment) RunSharded(ctx context.Context, shards int) (*CampaignResult, error) {
	if shards < 1 {
		return nil, fmt.Errorf("libspector: campaign needs at least 1 shard, got %d", shards)
	}
	coord := &dispatch.Coordinator{
		Plan: e.shardPlan(shards),
		Run: func(ctx context.Context, task dispatch.ShardTask) (*dispatch.ShardOutcome, error) {
			return e.runShardTask(ctx, task)
		},
		// Journal replay makes takeover cheap (completed apps are never
		// redone), and every successful takeover strictly grows the
		// journaled prefix; one takeover per app bounds even a campaign
		// where every single run crashes the shard hosting it.
		MaxTakeovers: e.apps,
		// Shard lifecycle and merge progress stream on the campaign bus.
		Tel: e.cfg.Telemetry,
	}
	if e.cfg.CoordinatorWAL != "" {
		coord.WAL = e.cfg.CoordinatorWAL
		coord.Resume = e.cfg.Resume
		coord.Fingerprint = e.cfg.Fingerprint()
	}
	out, err := coord.Execute(ctx)
	if err != nil {
		return nil, fmt.Errorf("libspector: sharded campaign: %w", err)
	}
	return e.FinishCampaign(out, shards)
}

// RunShard executes exactly one shard of an N-shard split — the child
// process entry point behind the commands' -shard-index. The returned
// outcome carries the shard's encoded partial and is ready for
// dispatch.WriteShardOutcome. The parent process merges outcomes with
// dispatch.MergeOutcomes and FinishCampaign.
func (e *Experiment) RunShard(ctx context.Context, index, shards int) (*dispatch.ShardOutcome, error) {
	if shards < 1 || index < 0 || index >= shards {
		return nil, fmt.Errorf("libspector: shard index %d out of %d", index, shards)
	}
	plan := e.shardPlan(shards)
	return e.runShardTask(ctx, dispatch.ShardTask{
		Index:   index,
		Range:   plan.Range(index),
		Workers: plan.WorkersFor(index),
	})
}

// runShardTask is the in-process ShardRunner: the fleet restricted to the
// task's range, with a private telemetry registry and attributor, folded
// into per-worker accumulators that seal into the shard's partial.
func (e *Experiment) runShardTask(ctx context.Context, task dispatch.ShardTask) (*dispatch.ShardOutcome, error) {
	shardTel := e.shardTelemetry()
	attributor := attribution.NewAttributor(e.domains)
	attributor.SetTelemetry(shardTel)
	spec := fleetSpec{
		workers: task.Workers,
		tel:     shardTel,
		attr:    attributor,
		shard:   task.Range,
		// The shard's analysis.fold ranking events carry its index so the
		// dashboard can merge per-shard "top libraries so far" views.
		foldShard: task.Index,
	}
	if e.cfg.ArtifactDir != "" {
		spec.artifacts = ShardArtifactDir(e.cfg.ArtifactDir, task.Index)
	}
	if e.cfg.Journal != "" {
		spec.journal = ShardJournalPath(e.cfg.Journal, task.Index)
		// Resume on takeover, or when the whole campaign is a resume —
		// unless this shard never got far enough to write a journal.
		spec.resume = e.cfg.Resume || task.Attempt > 0
		if spec.resume {
			if _, err := os.Stat(spec.journal); err != nil {
				spec.resume = false
			}
		}
	}
	var sinks []dispatch.Sink
	if e.cfg.ChaosKillAfterRuns > 0 {
		sinks = append(sinks, chaosKill(e.cfg.ChaosKillAfterRuns))
	}
	out, err := e.runFleet(ctx, spec, func() (folder, error) { return analysis.NewAccumulator(e.domains) }, sinks...)
	if out == nil {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("libspector: shard %d: %w", task.Index, err)
	}
	if len(out.folds) == 0 {
		// A shard whose workers never started still owes an (empty)
		// partial.
		acc, err := analysis.NewAccumulator(e.domains)
		if err != nil {
			return nil, fmt.Errorf("libspector: shard %d: %w", task.Index, err)
		}
		out.folds = append(out.folds, acc)
	}
	parts := make([]*analysis.Partial, 0, len(out.folds))
	for _, f := range out.folds {
		p, err := f.(*analysis.Accumulator).Seal()
		if err != nil {
			return nil, fmt.Errorf("libspector: shard %d: %w", task.Index, err)
		}
		parts = append(parts, p)
	}
	partial, err := analysis.MergePartials(parts...)
	if err != nil {
		return nil, fmt.Errorf("libspector: shard %d: %w", task.Index, err)
	}
	enc, err := partial.Encode()
	if err != nil {
		return nil, fmt.Errorf("libspector: shard %d: %w", task.Index, err)
	}
	var seg []byte
	if out.records != nil {
		// The shard owns a contiguous app-index range, so its sorted
		// segment concatenates with its siblings (in shard order) into the
		// globally canonical record order the merged store depends on.
		seg, err = out.records.Seal()
		if err != nil {
			return nil, fmt.Errorf("libspector: shard %d: %w", task.Index, err)
		}
	}
	return &dispatch.ShardOutcome{
		Index:       task.Index,
		Range:       task.Range,
		Accounting:  out.summary.Accounting,
		Failures:    out.summary.Failures,
		Quarantined: out.summary.Quarantined,
		Snapshot:    shardTel.Metrics().Snapshot(),
		Partial:     enc,
		Records:     seg,
	}, nil
}

// chaosKill is the ChaosKillAfterRuns hook: a sink that dies — really
// dies, SIGKILL — after n terminal outcomes. Unsynced journal frames are
// lost exactly as a real crash loses them; the takeover attempt resumes
// from whatever the journal fsynced.
func chaosKill(n int) dispatch.Sink {
	terminal := 0
	return dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		switch ev.Kind {
		case dispatch.EventRun, dispatch.EventSkip, dispatch.EventFailure, dispatch.EventQuarantine:
			if terminal++; terminal >= n {
				faults.KillSelf()
			}
		}
		return nil
	})
}

// shardTelemetry builds a shard's private telemetry, mode-matched to the
// campaign's: virtual campaigns get virtual shard registries (and so
// byte-deterministic merged snapshots), live campaigns get wall-clock
// ones, untelemetered campaigns get none.
func (e *Experiment) shardTelemetry() *obs.Telemetry {
	var tel *obs.Telemetry
	switch {
	case e.cfg.Telemetry == nil:
		return nil
	case e.cfg.Telemetry.Virtual():
		tel = obs.NewVirtual(nil)
	default:
		tel = obs.New()
	}
	// Shards keep private registries (snapshots must merge back to the
	// single-process one) but share the campaign's event bus, so every
	// shard's run events land on the one live stream and event log.
	tel.SetBus(e.cfg.Telemetry.Bus())
	return tel
}

// FinishCampaign decodes and merges the shard partials of a merged
// outcome, finalizes the detector, and finishes the figures — the last
// step of RunSharded, and the process-mode path for callers that ran
// their own dispatch.Coordinator (fleetscan's supervised parent) or
// merged shard outcome files with dispatch.MergeOutcomes. The merged
// aggregates are also installed on the experiment so the usual accessors
// (Aggregates) and report rendering keep working after a sharded run.
func (e *Experiment) FinishCampaign(out *dispatch.CampaignOutcome, shards int) (*CampaignResult, error) {
	parts := make([]*analysis.Partial, 0, len(out.Partials))
	for i, enc := range out.Partials {
		p, err := analysis.DecodePartial(enc, e.domains)
		if err != nil {
			return nil, fmt.Errorf("libspector: shard %d partial: %w", i, err)
		}
		parts = append(parts, p)
	}
	merged, err := analysis.MergePartials(parts...)
	if err != nil {
		return nil, fmt.Errorf("libspector: merging partials: %w", err)
	}
	e.detector.Finalize(2)
	ag, err := merged.Finish(e.detector)
	if err != nil {
		return nil, fmt.Errorf("libspector: finishing campaign: %w", err)
	}
	e.aggregates = ag
	if e.cfg.ResultStore != "" {
		// Store merge: shard segments are already sorted and shard order
		// is canonical order, so the merged image is byte-identical to the
		// one a single-process same-seed run writes.
		if _, err := resultstore.WriteSegments(e.cfg.ResultStore, out.Segments); err != nil {
			return nil, fmt.Errorf("libspector: writing result store: %w", err)
		}
	}
	// Terminal event after durability, mirroring RunContext. The merged
	// ledger equals the single-process one (shard ranges are disjoint and
	// exhaustive), so the event's bytes are shard-count invariant.
	publishCampaignDone(e.cfg.Telemetry, out.Accounting)
	return &CampaignResult{
		Accounting:  out.Accounting,
		Failures:    out.Failures,
		Quarantined: out.Quarantined,
		Snapshot:    out.Snapshot,
		Aggregates:  ag,
		Takeovers:   out.Takeovers,
		Shards:      shards,
	}, nil
}
