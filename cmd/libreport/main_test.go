package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestEveryFigureRenders exercises every figure id end-to-end on a tiny
// corpus. One fleet run per figure keeps the test honest about the
// command's actual behavior.
func TestEveryFigureRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	for _, figure := range []string{"totals", "T1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "E1", "E2", "E4", "json"} {
		figure := figure
		t.Run(figure, func(t *testing.T) {
			if err := run([]string{"-figure", figure, "-apps", "8", "-seed", "5"}); err != nil {
				t.Fatalf("figure %s: %v", figure, err)
			}
		})
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	if err := run([]string{"-figure", "F99", "-apps", "4"}); err == nil {
		t.Error("unknown figure id should fail")
	}
}

// TestFlagSurface pins the command's flag names and defaults, so moving
// flags between the command and the shared campaign surface cannot drop,
// rename, or re-default one.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"apps":          "200",
		"artifacts":     "",
		"csv":           "",
		"events-out":    "",
		"figure":        "totals",
		"group-by":      "",
		"merge-shards":  "",
		"query-app":     "",
		"query-domain":  "",
		"query-library": "",
		"seed":          "42",
		"shard-index":   "-1",
		"shard-out":     "",
		"shards":        "1",
		"store":         "",
		"top":           "15",
		"top-groups":    "10",
		"wal":           "",
		"workers":       "0",
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

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what fn printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardChildMergeMatchesPlainRun drives the shared shard-child mode
// through the command: two -shard-index children write their outcomes,
// -merge-shards folds them, and the -figure json document must be
// byte-identical to a plain run of the same seed.
func TestShardChildMergeMatchesPlainRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	campaign := []string{"-apps", "12", "-seed", "7", "-workers", "2"}
	dir := t.TempDir()
	var outs []string
	for i := 0; i < 2; i++ {
		out := filepath.Join(dir, fmt.Sprintf("shard-%d.out", i))
		args := append(append([]string(nil), campaign...), "-shards", "2", "-shard-index", fmt.Sprint(i), "-shard-out", out)
		if err := run(args); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		outs = append(outs, out)
	}
	merged := captureStdout(t, func() error {
		return run(append(append([]string(nil), campaign...), "-merge-shards", outs[0]+","+outs[1], "-figure", "json"))
	})
	plain := captureStdout(t, func() error {
		return run(append(append([]string(nil), campaign...), "-figure", "json"))
	})
	if len(plain) == 0 {
		t.Fatal("plain run printed no figures")
	}
	if !bytes.Equal(merged, plain) {
		t.Errorf("merged shard figures differ from the plain run:\nmerged: %.300s\nplain:  %.300s", merged, plain)
	}
}
