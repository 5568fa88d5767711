package art

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"libspector/internal/dex"
)

func TestThreadStackOrdering(t *testing.T) {
	var th Thread
	th.Push(Frame{Qualified: "java.util.concurrent.FutureTask.run"})
	th.Push(Frame{Qualified: "android.os.AsyncTask$2.call"})
	th.Push(Frame{Qualified: "com.unity3d.ads.android.cache.b.doInBackground"})
	th.Push(Frame{Qualified: "java.net.Socket.connect"})

	trace := th.GetStackTrace()
	// Java convention (Listing 1): index 0 is the most recent invocation.
	if trace[0].Qualified != "java.net.Socket.connect" {
		t.Errorf("trace[0] = %s", trace[0].Qualified)
	}
	if trace[len(trace)-1].Qualified != "java.util.concurrent.FutureTask.run" {
		t.Errorf("trace[last] = %s", trace[len(trace)-1].Qualified)
	}
	if th.Depth() != 4 {
		t.Errorf("Depth = %d", th.Depth())
	}
	if err := th.Pop(); err != nil {
		t.Fatal(err)
	}
	if th.Depth() != 3 {
		t.Errorf("Depth after pop = %d", th.Depth())
	}
	th.Reset()
	if th.Depth() != 0 {
		t.Error("Reset did not clear the stack")
	}
	if err := th.Pop(); err == nil {
		t.Error("Pop on empty stack should fail")
	}
}

func TestProfilerUniqueMode(t *testing.T) {
	p, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p.OnMethodEntry("La/B;->f()V")
		p.OnMethodEntry("La/B;->g()V")
	}
	if p.UniqueCount() != 2 {
		t.Errorf("UniqueCount = %d, want 2", p.UniqueCount())
	}
	if p.TotalInvocations() != 2000 {
		t.Errorf("TotalInvocations = %d", p.TotalInvocations())
	}
	if p.DroppedInvocations() != 0 {
		t.Errorf("unique mode dropped %d entries", p.DroppedInvocations())
	}
}

func TestProfilerBoundedModeLosesData(t *testing.T) {
	// Stock ART behaviour (§II-B1): the buffer fills with repeated calls
	// and later first-invocations are lost.
	p, err := NewProfiler(ProfilerBounded, 100)
	if err != nil {
		t.Fatal(err)
	}
	// 100 repeated calls to one method fill the buffer...
	for i := 0; i < 100; i++ {
		p.OnMethodEntry("La/B;->hot()V")
	}
	// ...so this first invocation is dropped.
	p.OnMethodEntry("La/B;->cold()V")
	if p.UniqueCount() != 1 {
		t.Errorf("bounded mode recorded %d unique methods, want 1 (data loss)", p.UniqueCount())
	}
	if p.DroppedInvocations() != 1 {
		t.Errorf("DroppedInvocations = %d, want 1", p.DroppedInvocations())
	}

	// The unique-mode modification records both under the same load.
	u, err := NewProfiler(ProfilerUnique, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		u.OnMethodEntry("La/B;->hot()V")
	}
	u.OnMethodEntry("La/B;->cold()V")
	if u.UniqueCount() != 2 {
		t.Errorf("unique mode recorded %d methods, want 2", u.UniqueCount())
	}
}

func TestProfilerModeValidation(t *testing.T) {
	if _, err := NewProfiler(ProfilerMode(0), 0); err == nil {
		t.Error("zero mode should fail")
	}
	if _, err := NewProfiler(ProfilerMode(99), 0); err == nil {
		t.Error("unknown mode should fail")
	}
}

func TestProfilerTraceRoundTrip(t *testing.T) {
	p, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	sigs := []string{"La/B;->f()V", "La/B;->g(I)V", "Lc/D;->h()Z"}
	for _, s := range sigs {
		p.OnMethodEntry(s)
	}
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != len(sigs) {
		t.Fatalf("trace has %d entries, want %d", len(trace), len(sigs))
	}
	for _, s := range sigs {
		if _, ok := trace[s]; !ok {
			t.Errorf("trace missing %s", s)
		}
	}
	if sorted := p.SortedUnique(); len(sorted) != 3 || sorted[0] > sorted[1] {
		t.Errorf("SortedUnique = %v", sorted)
	}
}

// buildTestProgram assembles a small two-activity program with one
// network operation.
func buildTestProgram(t *testing.T, runLimit int) (*Program, []dex.Method) {
	t.Helper()
	d := dex.NewFile(time.Now())
	methods := []dex.Method{
		{Class: "com.app.Main", Name: "onCreate", Return: "V"},
		{Class: "com.app.Main", Name: "onClick", Return: "V"},
		{Class: "com.vendor.ads.Loader", Name: "fetchAd", Return: "V"},
		{Class: "com.vendor.ads.cache.b", Name: "doInBackground", Params: []string{"[Ljava/lang/String;"}, Return: "Ljava/lang/Object;"},
		{Class: "com.app.Second", Name: "onCreate", Return: "V"},
	}
	for _, m := range methods {
		if err := d.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	prog := &Program{
		PackageName: "com.app",
		Dex:         d,
		Activities: []Activity{
			{
				Name: "com.app.Main",
				Handlers: []Handler{
					{
						Name:       "onCreate",
						MethodIdxs: []int{0},
						NetOps: []NetOp{{
							ChainIdxs: []int{3, 2}, // doInBackground first (chronologically), fetchAd above
							Context:   ContextAsyncTask,
							Transport: TransportBuiltinOkhttp,
							RunLimit:  runLimit,
							Action: NetworkAction{
								Domain: "ads.example.com", Port: 80,
								HTTPMethod: "GET", Path: "/ad",
								RequestBytes: 200, ResponseBytes: 1000,
							},
						}},
					},
					{Name: "onClick", MethodIdxs: []int{1}},
				},
			},
			{
				Name:     "com.app.Second",
				Handlers: []Handler{{Name: "onCreate", MethodIdxs: []int{4}}},
			},
		},
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog, methods
}

// recordingPerformer captures the stack at each network action.
type recordingPerformer struct {
	stacks  [][]Frame
	actions []NetworkAction
}

func (r *recordingPerformer) Perform(th *Thread, action NetworkAction) error {
	r.stacks = append(r.stacks, th.GetStackTrace())
	r.actions = append(r.actions, action)
	return nil
}

func TestRuntimeSocketStackShape(t *testing.T) {
	prog, methods := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	perf := &recordingPerformer{}
	rt, err := NewRuntime(prog, profiler, perf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err != nil {
		t.Fatal(err)
	}
	if len(perf.stacks) != 1 {
		t.Fatalf("performed %d net ops, want 1", len(perf.stacks))
	}
	stack := perf.stacks[0]
	// Top-first: socket connect on top, AsyncTask context at the bottom,
	// app chain in between — the Listing 1 shape.
	if stack[0].Qualified != "java.net.Socket.connect" {
		t.Errorf("top of stack = %s", stack[0].Qualified)
	}
	bottom := stack[len(stack)-1].Qualified
	if bottom != "java.util.concurrent.FutureTask.run" {
		t.Errorf("bottom of stack = %s", bottom)
	}
	var sawChain0, sawChain1 bool
	var idx0, idx1 int
	for i, f := range stack {
		if f.Qualified == methods[3].QualifiedName() {
			sawChain0, idx0 = true, i
		}
		if f.Qualified == methods[2].QualifiedName() {
			sawChain1, idx1 = true, i
		}
	}
	if !sawChain0 || !sawChain1 {
		t.Fatal("chain frames missing from the socket stack")
	}
	// ChainIdxs are bottom-first: chain[0] (doInBackground) must be below
	// (i.e. later in the top-first list than) chain[1].
	if idx0 <= idx1 {
		t.Errorf("chain order wrong: doInBackground at %d, fetchAd at %d", idx0, idx1)
	}
}

func TestRuntimeRunLimit(t *testing.T) {
	prog, _ := buildTestProgram(t, 2)
	profiler, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	perf := &recordingPerformer{}
	rt, err := NewRuntime(prog, profiler, perf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err != nil {
		t.Fatal(err)
	}
	// Re-dispatch the onCreate handler several times; the op fires once
	// more, then the RunLimit of 2 caps it.
	for i := 0; i < 5; i++ {
		if err := rt.DispatchEvent(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(perf.actions) != 2 {
		t.Errorf("net op performed %d times, want RunLimit 2", len(perf.actions))
	}
}

func TestRuntimeOnCreateRunsOncePerActivity(t *testing.T) {
	prog, methods := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, profiler, &recordingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err != nil {
		t.Fatal(err)
	}
	// Dispatch to activity 1: its onCreate (method 4) must run first.
	if err := rt.DispatchEvent(1, 0); err != nil {
		t.Fatal(err)
	}
	trace := profiler.UniqueMethods()
	if _, ok := trace[methods[4].TypeSignature()]; !ok {
		t.Error("second activity's onCreate was not recorded")
	}
	// Dispatching handler 1 of activity 0 runs methods[1].
	if err := rt.DispatchEvent(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := profiler.UniqueMethods()[methods[1].TypeSignature()]; !ok {
		t.Error("onClick handler not recorded")
	}
	if rt.HandlerDispatches() == 0 || rt.NetOpsPerformed() != 1 {
		t.Errorf("dispatch counters: %d handlers, %d netops",
			rt.HandlerDispatches(), rt.NetOpsPerformed())
	}
}

func TestRuntimeIndexModulo(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, profiler, &recordingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	// Large and negative indices reduce into range instead of panicking.
	if err := rt.DispatchEvent(1_000_003, 999); err != nil {
		t.Fatal(err)
	}
	if err := rt.DispatchEvent(-7, -3); err != nil {
		t.Fatal(err)
	}
}

func TestProgramValidation(t *testing.T) {
	d := dex.NewFile(time.Now())
	if err := d.AddMethod(dex.Method{Class: "a.B", Name: "f", Return: "V"}); err != nil {
		t.Fatal(err)
	}
	valid := Activity{Name: "a.B", Handlers: []Handler{{Name: "h"}}}
	cases := []struct {
		name string
		prog Program
	}{
		{"empty package", Program{Dex: d, Activities: []Activity{valid}}},
		{"nil dex", Program{PackageName: "a", Activities: []Activity{valid}}},
		{"no activities", Program{PackageName: "a", Dex: d}},
		{"activity without handlers", Program{PackageName: "a", Dex: d, Activities: []Activity{{Name: "x"}}}},
		{"method index out of range", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", MethodIdxs: []int{5}}}},
		}}},
		{"chain index out of range", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", NetOps: []NetOp{{
				ChainIdxs: []int{9},
				Action:    NetworkAction{Domain: "d", Port: 80},
			}}}}},
		}}},
		{"netop without domain", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", NetOps: []NetOp{{
				Action: NetworkAction{Port: 80},
			}}}}},
		}}},
		{"netop port zero", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", NetOps: []NetOp{{
				Action: NetworkAction{Domain: "d"},
			}}}}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prog.Validate(); err == nil {
				t.Errorf("%s should fail validation", tc.name)
			}
		})
	}
}

func TestContextAndTransportFrames(t *testing.T) {
	for _, k := range []ContextKind{ContextMainThread, ContextAsyncTask, ContextWorkerThread, ContextExecutorPool, ContextKind(99)} {
		frames := contextFrames(k)
		if len(frames) == 0 {
			t.Errorf("context %d yields no frames", k)
		}
	}
	for _, k := range []TransportKind{TransportBuiltinOkhttp, TransportJavaNet, TransportBundledOkhttp3, TransportVolley, TransportKind(99)} {
		frames := transportFrames(k)
		if len(frames) == 0 {
			t.Errorf("transport %d yields no frames", k)
		}
		// Every transport chain ends at the socket connect call.
		if top := frames[len(frames)-1].Qualified; top != "java.net.Socket.connect" {
			t.Errorf("transport %d ends with %s", k, top)
		}
	}
	// The builtin okhttp chain reproduces the Listing 1 fork frames.
	joined := ""
	for _, f := range transportFrames(TransportBuiltinOkhttp) {
		joined += f.Qualified + "\n"
	}
	if !strings.Contains(joined, "com.android.okhttp.internal.Platform.connectSocket") {
		t.Error("builtin okhttp transport missing the Listing 1 platform frame")
	}
}

func TestRuntimeConstructorValidation(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(prog, nil, &recordingPerformer{}); err == nil {
		t.Error("nil profiler should fail")
	}
	if _, err := NewRuntime(prog, profiler, nil); err == nil {
		t.Error("nil performer should fail")
	}
	bad := &Program{PackageName: "x"}
	if _, err := NewRuntime(bad, profiler, &recordingPerformer{}); err == nil {
		t.Error("invalid program should fail")
	}
}

// failingPerformer simulates network failures.
type failingPerformer struct{}

func (failingPerformer) Perform(*Thread, NetworkAction) error {
	return fmt.Errorf("connection refused")
}

func TestRuntimePropagatesNetworkErrors(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, profiler, failingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err == nil {
		t.Error("network failure should propagate from Launch")
	}
}

// A method entry reads its pre-rendered signature from the dex file: once
// a handler's methods are recorded, dispatching a handler with method
// entries only (no net ops) allocates nothing.
func TestDispatchMethodEntriesAllocateNothing(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	prof, err := NewProfiler(ProfilerUnique, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, prof, &recordingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	// First dispatch starts the activity (onCreate and its net op) and
	// records onClick's method.
	if err := rt.DispatchEvent(0, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := rt.DispatchEvent(0, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DispatchEvent on a method-only handler makes %.1f allocs, want 0", allocs)
	}
	if got := prof.TotalInvocations(); got < 200 {
		t.Fatalf("profiler saw %d invocations, want every dispatch recorded", got)
	}
}
