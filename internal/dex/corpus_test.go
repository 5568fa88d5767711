package dex_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"libspector/internal/apk"
	"libspector/internal/dex"
	"libspector/internal/synth"
)

// corpusFiles returns the dex files of a fixed generated corpus, each as
// built by the generator (AddMethod) and as decoded from its apk.
func corpusFiles(t *testing.T) map[string]*dex.File {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = 14
	cfg.NumApps = 12
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]*dex.File)
	for i := 0; i < cfg.NumApps; i++ {
		app, err := world.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := apk.Decode(app.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		files[app.APK.Manifest.Package+"/built"] = app.Program.Dex
		files[app.APK.Manifest.Package+"/decoded"] = decoded.Dex
	}
	return files
}

func TestCorpusSignaturesMatchReference(t *testing.T) {
	for name, f := range corpusFiles(t) {
		for i, m := range f.Methods() {
			ref := dex.DescriptorForClass(m.Class) + "->" + m.Name + "(" + strings.Join(m.Params, "") + ")" + m.Return
			if got := m.TypeSignature(); got != ref {
				t.Fatalf("%s method %d: TypeSignature = %q, reference %q", name, i, got, ref)
			}
			sig, err := f.SignatureAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if sig != ref {
				t.Fatalf("%s method %d: SignatureAt = %q, reference %q", name, i, sig, ref)
			}
		}
	}
}

// DisassembleFile reads the stored signatures; its output must equal the
// re-rendering disassembly it replaced.
func TestCorpusDisassemblyUnchanged(t *testing.T) {
	for name, f := range corpusFiles(t) {
		methods := f.Methods()
		want := &dex.Disassembly{
			Signatures:   make([]string, 0, len(methods)),
			SignatureSet: make(map[string]struct{}, len(methods)),
			MethodCount:  len(methods),
		}
		for _, m := range methods {
			sig := m.TypeSignature()
			want.Signatures = append(want.Signatures, sig)
			want.SignatureSet[sig] = struct{}{}
		}
		sort.Strings(want.Signatures)
		if got := dex.DisassembleFile(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DisassembleFile differs from the re-rendered disassembly (%d vs %d signatures)",
				name, len(got.Signatures), len(want.Signatures))
		}
	}
}
