package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestFullPipelineSmallCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	artifacts := t.TempDir()
	err := run(context.Background(), []string{
		"-apps", "10", "-seed", "9", "-events", "150",
		"-collector", "-store", "-artifacts", artifacts,
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	// The artifact directory holds one run directory per analyzed app.
	entries, err := os.ReadDir(artifacts)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no artifacts persisted")
	}
	for _, e := range entries {
		for _, name := range []string{"app.apk", "capture.pcap", "reports.bin", "trace.txt", "meta.json"} {
			if _, err := os.Stat(filepath.Join(artifacts, e.Name(), name)); err != nil {
				t.Errorf("artifact %s/%s missing: %v", e.Name(), name, err)
			}
		}
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run(context.Background(), []string{"-apps", "notanumber"}); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	if err := run(context.Background(), []string{"-resume"}); err == nil {
		t.Error("-resume without -journal should fail")
	}
}

func TestAuditRequiresArtifacts(t *testing.T) {
	if err := run(context.Background(), []string{"audit"}); err == nil {
		t.Error("audit without -artifacts should fail")
	}
}

// TestJournalResumeAuditCLI walks the operator loop end to end: journaled
// campaign, audit passes, evidence damaged, audit fails, resume repairs,
// audit passes again.
func TestJournalResumeAuditCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	dir := t.TempDir()
	artifacts := filepath.Join(dir, "artifacts")
	wal := filepath.Join(dir, "campaign.wal")
	campaign := []string{
		"-apps", "8", "-seed", "11", "-events", "120",
		"-artifacts", artifacts, "-journal", wal,
	}
	ctx := context.Background()
	if err := run(ctx, campaign); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	audit := []string{"audit", "-artifacts", artifacts, "-journal", wal}
	if err := run(ctx, audit); err != nil {
		t.Fatalf("audit of a clean store: %v", err)
	}

	entries, err := os.ReadDir(artifacts)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no artifacts persisted: %v", err)
	}
	victim := filepath.Join(artifacts, entries[0].Name(), "app.apk")
	blob, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x08
	if err := os.WriteFile(victim, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, audit); err == nil {
		t.Fatal("audit missed a flipped apk bit")
	}

	if err := run(ctx, append(campaign, "-resume")); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := run(ctx, audit); err != nil {
		t.Errorf("audit after repairing resume: %v", err)
	}
}

// TestFlagSurface pins the command's flag names and defaults, so moving
// flags between the command and the shared campaign surface cannot drop,
// rename, or re-default one.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"apps":              "300",
		"artifacts":         "",
		"collector":         "false",
		"continue-on-error": "false",
		"coordinator-wal":   "",
		"domain-scale":      "0.05",
		"events":            "1000",
		"events-out":        "",
		"fault-classes":     "",
		"fault-poison":      "0",
		"fault-rate":        "0",
		"journal":           "",
		"max-attempts":      "1",
		"method-scale":      "0.03",
		"metrics-addr":      "",
		"resume":            "false",
		"retry-backoff":     "0s",
		"run-timeout":       "0s",
		"seed":              "42",
		"shard-index":       "-1",
		"shard-out":         "",
		"shards":            "1",
		"store":             "false",
		"throttle":          "500",
		"top":               "15",
		"trace-out":         "",
		"volume-scale":      "1",
		"workers":           "0",
	}
	fs, _ := newFlags()
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("flag -%s missing", name)
		} else if g != def {
			t.Errorf("flag -%s default %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected flag -%s", name)
		}
	}
}
