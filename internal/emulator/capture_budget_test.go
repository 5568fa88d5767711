package emulator

import (
	"testing"

	"libspector/internal/art"
	"libspector/internal/synth"
)

// The in-memory capture is reserved once from the program's planned
// traffic. On a fixed 40-app corpus at default options the reservation
// must hold every capture without the buffer growing, and over-reserve by
// at most 25%.
func TestCaptureBudgetCoversCorpusWithoutGrowth(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 14
	cfg.NumApps = 40
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < cfg.NumApps; i++ {
		app, err := world.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		budget := captureBudget(app.Program)
		arts, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, DefaultOptions(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		n := len(arts.CaptureBytes)
		if n > budget || cap(arts.CaptureBytes) != budget {
			t.Fatalf("app %d: capture of %d bytes outgrew its %d-byte budget (buffer cap %d)", i, n, budget, cap(arts.CaptureBytes))
		}
		over := float64(budget)/float64(n) - 1
		if over > 0.25 {
			t.Errorf("app %d: budget %d over-reserves the %d-byte capture by %.1f%%, want at most 25%%", i, budget, n, 100*over)
		}
		worst = max(worst, over)
	}
	t.Logf("worst over-reserve: %.1f%%", 100*worst)
}

func TestCaptureBudgetCountsRunsAndCaps(t *testing.T) {
	prog := func(runLimit int, response int64) *art.Program {
		return &art.Program{Activities: []art.Activity{{Handlers: []art.Handler{{NetOps: []art.NetOp{{
			RunLimit: runLimit,
			Action:   art.NetworkAction{RequestBytes: 100, ResponseBytes: response},
		}}}}}}}
	}
	once := captureBudget(prog(1, 900))
	if want := 1000 + 1000/payloadSlackDiv + perConnSlack + captureHeaderSlack; once != want {
		t.Errorf("one run of 1000 bytes: budget %d, want %d", once, want)
	}
	// An uncapped op (RunLimit 0) is planned once, like RunLimit 1.
	if got := captureBudget(prog(0, 900)); got != once {
		t.Errorf("RunLimit 0: budget %d, want %d", got, once)
	}
	if got, want := captureBudget(prog(3, 900)), 3000+3000/payloadSlackDiv+3*perConnSlack+captureHeaderSlack; got != want {
		t.Errorf("RunLimit 3: budget %d, want %d", got, want)
	}
	// Negative sizes plan nothing; huge ones stop at the reservation cap.
	if got, want := captureBudget(prog(1, -5000)), 100+100/payloadSlackDiv+perConnSlack+captureHeaderSlack; got != want {
		t.Errorf("negative response: budget %d, want %d", got, want)
	}
	if got := captureBudget(prog(1, 1<<40)); got != maxCaptureReserve {
		t.Errorf("huge response: budget %d, want the %d cap", got, maxCaptureReserve)
	}
}
