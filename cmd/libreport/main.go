// Command libreport regenerates a single table or figure of the paper's
// evaluation from a fresh experiment run.
//
// Usage:
//
//	libreport -figure F9 [-apps N] [-seed S]
//
// Figure ids: T1, F2, F3, F4, F5, F6, F7, F8, F9, F10, E1 (cost),
// E2 (energy), E4 (baselines), totals, json (full machine-readable
// summary).
//
// With -artifacts DIR the report is regenerated from previously persisted
// run evidence (see libspector -artifacts) instead of a fresh fleet run.
//
// With -store PATH a run also writes the queryable attribution record
// store (internal/resultstore); the -query-app/-query-library/
// -query-domain/-group-by flags then answer rollup queries purely from
// that store on disk, with no fleet run at all. -merge-shards merges
// shard outcome files written by -shard-index children into the report
// (and, with -store, into the merged store).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"libspector"
	"libspector/internal/analysis"
	"libspector/internal/cli"
	"libspector/internal/dispatch"
	"libspector/internal/report"
	"libspector/internal/resultstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "libreport:", err)
		os.Exit(1)
	}
}

// options is the command's parsed flag set: the shared campaign flags
// plus the report, store-query, and merge flags only this command has.
type options struct {
	*cli.Campaign
	figure, artifacts, csvDir, mergeShards string
	inspectWAL                             string
	queryApp, queryLib, queryDomain        string
	groupBy                                string
	topGroups                              int
}

// newFlags defines the command's flags. -artifacts is local: here it
// names persisted evidence to reanalyze, not a store for a fresh run.
func newFlags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("libreport", flag.ContinueOnError)
	o := &options{Campaign: cli.Register(fs, cli.Defaults{Apps: 200, Workers: 0},
		"apps", "seed", "workers", "top", "shards", "shard-index", "shard-out", "events-out")}
	fs.StringVar(&o.figure, "figure", "totals", "table/figure id: T1,F2..F10,E1,E2,E4,totals,json")
	fs.StringVar(&o.artifacts, "artifacts", "", "reanalyze persisted run evidence from this directory instead of running a fleet")
	fs.StringVar(&o.csvDir, "csv", "", "also write the figure series as CSV files into this directory")
	fs.StringVar(&o.mergeShards, "merge-shards", "", "comma-separated shard outcome files to merge into the report instead of running a fleet")
	fs.StringVar(&o.Config.ResultStore, "store", "", "attribution record store path: written during a run, read by the -query-* flags")
	fs.StringVar(&o.inspectWAL, "wal", "", "inspect a coordinator write-ahead log: print the campaign header and supervision history (attempts, takeovers, seals), no fleet run")
	fs.StringVar(&o.queryApp, "query-app", "", "query the -store for one app SHA (no fleet run)")
	fs.StringVar(&o.queryLib, "query-library", "", "query the -store for one origin library (no fleet run)")
	fs.StringVar(&o.queryDomain, "query-domain", "", "query the -store for one domain (no fleet run)")
	fs.StringVar(&o.groupBy, "group-by", "", "group -store query results: app, library, or domain")
	fs.IntVar(&o.topGroups, "top-groups", 10, "grouped query rows to print (0 = all)")
	return fs, o
}

func run(args []string) error {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}

	if o.inspectWAL != "" {
		return inspectCoordinatorWAL(o.inspectWAL)
	}

	if o.queryApp != "" || o.queryLib != "" || o.queryDomain != "" || o.groupBy != "" {
		// Query mode answers purely from the on-disk store: no world
		// generation, no fleet, no in-memory fold.
		return queryStore(o.Config.ResultStore, o.queryApp, o.queryLib, o.queryDomain, o.groupBy, o.topGroups)
	}

	cfg, err := o.Resolve()
	if err != nil {
		return err
	}
	// Telemetry exists only to record -events-out: the rest of a report
	// run has no use for it.
	var ob *cli.Observer
	if o.EventsOut != "" {
		if ob, err = o.Observe(); err != nil {
			return err
		}
		cfg.Telemetry = ob.Tel
	}
	ctx := context.Background()
	if o.ShardIndex >= 0 {
		if err := o.RunShardChild(ctx, cfg); err != nil {
			return err
		}
		return ob.WriteEvents()
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	// The record-level dataset backs E4 and the CSV export; a sharded run
	// only ever materializes the mergeable aggregates.
	var ds *analysis.Dataset
	switch {
	case o.mergeShards != "":
		outs, err := readOutcomes(o.mergeShards)
		if err != nil {
			return err
		}
		merged, err := dispatch.MergeOutcomes(outs)
		if err != nil {
			return err
		}
		if _, err := exp.FinishCampaign(merged, len(outs)); err != nil {
			return err
		}
	case o.Shards > 1:
		if _, err := exp.RunSharded(ctx, o.Shards); err != nil {
			return err
		}
	case o.artifacts != "":
		if ds, err = reanalyze(exp, o.artifacts); err != nil {
			return err
		}
	default:
		if err := exp.Run(); err != nil {
			return err
		}
		ds = exp.Dataset()
	}
	if err := ob.WriteEvents(); err != nil {
		return err
	}
	ag := exp.Aggregates()
	if ds != nil {
		ag = ds.Aggregates()
	}

	if o.csvDir != "" {
		if ds == nil {
			return fmt.Errorf("-csv needs the record-level dataset, which a sharded run does not materialize")
		}
		if err := writeCSVs(ds, o.csvDir); err != nil {
			return err
		}
	}

	if strings.EqualFold(o.figure, "json") {
		return ag.Summarize(o.Top).WriteJSON(os.Stdout)
	}
	fig, err := cli.Figure(exp, ag, ds, o.figure, o.Top)
	if err != nil {
		return err
	}
	fmt.Println(fig)
	return nil
}

// queryStore answers a -query-*/-group-by request from the on-disk
// attribution store alone.
func queryStore(path, app, lib, domain, groupBy string, topGroups int) error {
	if path == "" {
		return fmt.Errorf("query flags require -store")
	}
	q := resultstore.Query{AppSHA: app, Origin: lib, Domain: domain}
	switch groupBy {
	case "":
	case "app":
		q.GroupBy = resultstore.GroupApp
	case "library":
		q.GroupBy = resultstore.GroupOrigin
	case "domain":
		q.GroupBy = resultstore.GroupDomain
	default:
		return fmt.Errorf("unknown -group-by %q (want app, library, or domain)", groupBy)
	}
	st, err := resultstore.Open(path)
	if err != nil {
		return err
	}
	res, err := st.Query(q)
	if err != nil {
		return err
	}
	r := res.Rollup
	fmt.Printf("store %s: %d records in %d blocks (%d scanned)\n",
		path, st.Records(), st.Blocks(), res.BlocksScanned)
	fmt.Printf("flows %d (%d attributed)  bytes %d sent / %d received  packets %d/%d\n",
		r.Flows, r.Attributed, r.BytesSent, r.BytesReceived, r.PacketsSent, r.PacketsRecv)
	fmt.Printf("distinct: %d apps, %d libraries, %d domains\n", r.Apps, r.Origins, r.Domains)
	if q.GroupBy != resultstore.GroupNone {
		rows := res.Groups
		if topGroups > 0 && len(rows) > topGroups {
			rows = rows[:topGroups]
		}
		fmt.Printf("top %d of %d groups by %s:\n", len(rows), len(res.Groups), groupBy)
		for _, g := range rows {
			key := g.Key
			if key == "" {
				key = "(none)"
			}
			fmt.Printf("  %-40s flows %6d  bytes %12d\n", key, g.Flows, g.BytesSent+g.BytesReceived)
		}
	}
	return nil
}

// readOutcomes loads the comma-separated shard outcome files for
// -merge-shards, in the given (shard) order.
func readOutcomes(list string) ([]*dispatch.ShardOutcome, error) {
	var outs []*dispatch.ShardOutcome
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		o, err := dispatch.ReadShardOutcome(p)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("-merge-shards lists no outcome files")
	}
	return outs, nil
}

// reanalyze rebuilds the dataset from persisted artifacts: it feeds the
// stored apks through the LibRadar detection pass and re-runs the offline
// attribution over the stored captures and reports.
func reanalyze(exp *libspector.Experiment, dir string) (*analysis.Dataset, error) {
	store, err := dispatch.NewArtifactStore(dir)
	if err != nil {
		return nil, err
	}
	shas, incomplete, err := store.List()
	if err != nil {
		return nil, err
	}
	if len(incomplete) > 0 {
		fmt.Fprintf(os.Stderr, "libreport: skipping %d incomplete artifact entries: %v\n", len(incomplete), incomplete)
	}
	for _, sha := range shas {
		stored, err := store.Load(sha)
		if err != nil {
			return nil, err
		}
		if err := exp.Detector().ObserveApp(stored.Meta.Package, stored.APK.Dex.Packages()); err != nil {
			return nil, err
		}
	}
	runs, err := store.Reanalyze(exp.Attributor())
	if err != nil {
		return nil, err
	}
	exp.Detector().Finalize(2)
	return analysis.BuildDataset(runs, exp.Detector(), exp.Domains())
}

// writeCSVs exports the plottable figure series.
func writeCSVs(ds *analysis.Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating csv dir: %w", err)
	}
	write := func(name string, fill func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("creating %s: %w", name, err)
		}
		defer func() { _ = f.Close() }()
		return fill(f)
	}
	if err := write("fig2_category_matrix.csv", func(w *os.File) error {
		return report.Fig2CSV(w, ds.Fig2CategoryTransfer())
	}); err != nil {
		return err
	}
	if err := write("fig4_cdf.csv", func(w *os.File) error {
		return report.Fig4CSV(w, ds.Fig4CDF())
	}); err != nil {
		return err
	}
	if err := write("fig5_ratios.csv", func(w *os.File) error {
		return report.Fig5CSV(w, ds.Fig5FlowRatios())
	}); err != nil {
		return err
	}
	if err := write("fig9_heatmap.csv", func(w *os.File) error {
		return report.Fig9CSV(w, ds.Fig9Heatmap())
	}); err != nil {
		return err
	}
	return write("fig10_coverage.csv", func(w *os.File) error {
		return report.Fig10CSV(w, ds.Fig10Coverage())
	})
}

// inspectCoordinatorWAL renders a coordinator write-ahead log as a
// human-readable supervision history: the campaign header, every journaled
// attempt and takeover per shard, which shards sealed an outcome, and
// whether the merge committed. Torn tails are reported, not fatal — that is
// exactly the state a killed coordinator leaves behind.
func inspectCoordinatorWAL(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, err := dispatch.ReplayWAL(data)
	if err != nil && len(recs) == 0 {
		return fmt.Errorf("wal: %w", err)
	}
	for n, rec := range recs {
		switch rec.Type {
		case "campaign":
			fmt.Printf("[%3d] campaign  fingerprint=%s apps=%d shards=%d workers=%d\n",
				n, rec.Fingerprint, rec.Apps, rec.Shards, rec.Workers)
		case "attempt":
			fmt.Printf("[%3d] attempt   shard=%d attempt=%d\n", n, rec.Shard, rec.Attempt)
		case "takeover":
			fmt.Printf("[%3d] takeover  shard=%d next-attempt=%d cause=%s\n", n, rec.Shard, rec.Attempt, rec.Error)
		case "sealed":
			fmt.Printf("[%3d] sealed    shard=%d attempt=%d sha=%s\n", n, rec.Shard, rec.Attempt, rec.OutcomeSHA)
		case "done":
			fmt.Printf("[%3d] done      campaign merged and committed\n", n)
		default:
			fmt.Printf("[%3d] %-9s shard=%d\n", n, rec.Type, rec.Shard)
		}
	}
	if err != nil {
		fmt.Printf("WAL damaged after %d records: %v\n", len(recs), err)
		return nil
	}
	fmt.Printf("%d records; clean log.\n", len(recs))
	return nil
}
