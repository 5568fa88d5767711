package cli

import (
	"fmt"
	"strings"

	"libspector"
	"libspector/internal/analysis"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/report"
)

// Figures lists the ids of the evaluation's tables and figures in report
// order.
var Figures = []string{"totals", "T1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "E1", "E2", "E4"}

// Figure renders one table or figure by id (case-insensitive) from the
// aggregates. E4 compares record-level baselines and needs the dataset,
// which a sharded run does not materialize.
func Figure(exp *libspector.Experiment, ag *analysis.Aggregates, ds *analysis.Dataset, id string, topN int) (string, error) {
	switch strings.ToUpper(id) {
	case "TOTALS":
		return report.Totals(ag.ComputeTotals()), nil
	case "T1":
		// Table I over the full domain universe, as the paper categorizes
		// every domain seen in DNS requests.
		for _, d := range exp.World().Domains {
			exp.Domains().Categorize(d.Name)
		}
		return report.TableI(exp.Domains().Counts()), nil
	case "F2":
		return report.Fig2(ag.Fig2CategoryTransfer()), nil
	case "F3":
		return report.Fig3(ag.Fig3TopOrigins(topN), ag.Fig3TopTwoLevel(topN)), nil
	case "F4":
		return report.Fig4(ag.Fig4CDF()), nil
	case "F5":
		return report.Fig5(ag.Fig5FlowRatios()), nil
	case "F6":
		return report.Fig6(ag.Fig6AnTShares()), nil
	case "F7":
		return report.Fig7(ag.Fig7Averages()), nil
	case "F8":
		return report.Fig8(ag.Fig8AppCategoryAverages()), nil
	case "F9":
		return report.Fig9(ag.Fig9Heatmap()), nil
	case "F10":
		return report.Fig10(ag.Fig10Coverage()), nil
	case "E1":
		return report.Costs(analysis.CostPerCategory(ag.Fig7Averages(), analysis.NewCostModel(),
			corpus.LibAdvertisement, corpus.LibMobileAnalytics,
			corpus.LibSocialNetwork, corpus.LibDigitalIdentity, corpus.LibGameEngine)), nil
	case "E2":
		return report.Energy(analysis.NewEnergyModel(), ag.Fig7Averages().PerLibrary[corpus.LibAdvertisement]), nil
	case "E4":
		if ds == nil {
			return "", fmt.Errorf("E4 compares record-level baselines, which a sharded run does not materialize")
		}
		return report.Baselines(baseline.CompareUA(ds), baseline.CompareHostname(ds), baseline.CompareContentType(ds)), nil
	}
	return "", fmt.Errorf("unknown figure id %q", id)
}

// PrintLedger prints the degradation block of a fleet that lost
// coverage: failures, quarantines, never-run apps, and retry recoveries.
func PrintLedger(acct dispatch.Accounting, failures []dispatch.RunFailure, quarantined []dispatch.QuarantinedApp) {
	if len(failures) == 0 && len(quarantined) == 0 && acct.NotRun == 0 {
		return
	}
	fmt.Printf("Degraded fleet: %d failed, %d quarantined, %d never run — coverage %.1f%% of the analyzable corpus.\n",
		acct.Failed, acct.Quarantined, acct.NotRun, 100*acct.Coverage())
	for _, q := range quarantined {
		fmt.Printf("  quarantined app %d after %d attempts: %v\n", q.AppIndex, q.Attempts, q.LastErr)
	}
	if acct.Retried > 0 {
		fmt.Printf("  %d apps recovered by retries (%d attempts total, %s backoff charged).\n",
			acct.Retried, acct.Attempts, acct.Backoff)
	}
}
