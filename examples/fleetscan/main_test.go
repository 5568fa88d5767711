package main

import (
	"context"
	"flag"
	"strings"
	"testing"
)

func TestSmallSingleProcessScan(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	if err := run(context.Background(), []string{"-apps", "6", "-workers", "2", "-seed", "3"}); err != nil {
		t.Fatalf("scan: %v", err)
	}
}

func TestChaosKillRequiresJournal(t *testing.T) {
	err := run(context.Background(), []string{"-apps", "2", "-chaos-kill", "1"})
	if err == nil || !strings.Contains(err.Error(), "-chaos-kill requires -journal") {
		t.Errorf("-chaos-kill without -journal: got %v", err)
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	err := run(context.Background(), []string{"-apps", "2", "-resume"})
	if err == nil || !strings.Contains(err.Error(), "-resume requires -journal") {
		t.Errorf("-resume without -journal: got %v", err)
	}
}

// TestInheritedArgsVisitsOwnFlagSet checks that a shard child inherits
// the explicitly set campaign flags and none the parent owns.
func TestInheritedArgsVisitsOwnFlagSet(t *testing.T) {
	fs, _ := newFlags()
	if err := fs.Parse([]string{"-apps", "9", "-seed", "4", "-shards", "3", "-resume", "-journal", "j"}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(inheritedArgs(fs), " ")
	if want := "-apps=9 -journal=j -seed=4"; got != want {
		t.Errorf("inherited args %q, want %q", got, want)
	}
}

// TestFlagSurface pins the command's flag names and defaults, so moving
// flags between the command and the shared campaign surface cannot drop,
// rename, or re-default one.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"apps":             "40",
		"artifacts":        "",
		"chaos-kill":       "0",
		"chaos-kill-after": "0",
		"chaos-seed":       "0",
		"coordinator-wal":  "",
		"events-out":       "",
		"fault-poison":     "0",
		"fault-rate":       "0",
		"journal":          "",
		"max-attempts":     "1",
		"metrics-addr":     "",
		"probe-base-port":  "0",
		"probe-strikes":    "3",
		"resume":           "false",
		"retry-backoff":    "0s",
		"run-timeout":      "0s",
		"seed":             "42",
		"shard-index":      "-1",
		"shard-out":        "",
		"shards":           "1",
		"stall-deadline":   "0s",
		"trace-out":        "",
		"workers":          "4",
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
