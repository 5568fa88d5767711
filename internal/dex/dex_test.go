package dex

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleMethod() Method {
	return Method{
		Class:  "com.unity3d.ads.android.cache.b",
		Name:   "doInBackground",
		Params: []string{"[Ljava/lang/String;"},
		Return: "Ljava/lang/Object;",
	}
}

func TestTypeSignatureSmaliConvention(t *testing.T) {
	cases := []struct {
		m    Method
		want string
	}{
		{sampleMethod(), "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;"},
		// Inner classes keep their '$'.
		{Method{Class: "android.os.AsyncTask$2", Name: "call", Return: "Ljava/lang/Object;"},
			"Landroid/os/AsyncTask$2;->call()Ljava/lang/Object;"},
		{Method{Class: "com.x.Outer$Inner$1", Name: "run", Return: "V"}, "Lcom/x/Outer$Inner$1;->run()V"},
		// Default package: no separator to rewrite.
		{Method{Class: "Main", Name: "main", Params: []string{"[Ljava/lang/String;"}, Return: "V"},
			"LMain;->main([Ljava/lang/String;)V"},
		// Array and primitive descriptors, several params.
		{Method{Class: "x.Y", Name: "f", Params: []string{"I", "J", "[B", "[[Ljava/lang/String;", "Z", "C", "S", "F", "D"}, Return: "[I"},
			"Lx/Y;->f(IJ[B[[Ljava/lang/String;ZCSFD)[I"},
		// No params; an empty params slice renders the same as nil.
		{Method{Class: "a.b.c", Name: "a", Return: "V"}, "La/b/c;->a()V"},
		{Method{Class: "a.b.c", Name: "a", Params: []string{}, Return: "V"}, "La/b/c;->a()V"},
		// Degenerate dots still map one for one.
		{Method{Class: ".a..b.", Name: "<init>", Return: "V"}, "L/a//b/;-><init>()V"},
	}
	for _, c := range cases {
		if got := c.m.TypeSignature(); got != c.want {
			t.Errorf("TypeSignature(%+v) = %q, want %q", c.m, got, c.want)
		}
		if ref := referenceSignature(c.m); ref != c.want {
			t.Errorf("reference(%+v) = %q, want %q", c.m, ref, c.want)
		}
	}
}

func TestParseTypeSignatureRoundTrip(t *testing.T) {
	cases := []Method{
		sampleMethod(),
		{Class: "a.b.c", Name: "a", Params: nil, Return: "V"},
		{Class: "android.os.AsyncTask$2", Name: "call", Params: nil, Return: "Ljava/lang/Object;"},
		{Class: "x.Y", Name: "f", Params: []string{"I", "J", "[B", "[[Ljava/lang/String;"}, Return: "Z"},
	}
	for _, m := range cases {
		parsed, err := ParseTypeSignature(m.TypeSignature())
		if err != nil {
			t.Errorf("ParseTypeSignature(%q): %v", m.TypeSignature(), err)
			continue
		}
		if parsed.Class != m.Class || parsed.Name != m.Name || parsed.Return != m.Return ||
			!reflect.DeepEqual(normalize(parsed.Params), normalize(m.Params)) {
			t.Errorf("round trip changed %+v into %+v", m, parsed)
		}
	}
}

func normalize(p []string) []string {
	if len(p) == 0 {
		return nil
	}
	return p
}

func TestParseTypeSignatureErrors(t *testing.T) {
	bad := []string{
		"",
		"no-arrow-here",
		"Lcom/x;->",
		"Lcom/x;->f",
		"Lcom/x;->f(",
		"Lcom/x;->f()",         // missing return
		"Lcom/x;->f(Q)V",       // unknown descriptor
		"Lcom/x;->f([)V",       // dangling array
		"Lcom/x;->f(Lunterm)V", // unterminated class
		"com.x->f()V",          // class not in descriptor form
		"Lcom/x;->f()VV",       // two return descriptors
		"Lcom/x;->f()Lunterm",  // unterminated return
	}
	for _, sig := range bad {
		if _, err := ParseTypeSignature(sig); err == nil {
			t.Errorf("ParseTypeSignature(%q) should fail", sig)
		}
	}
}

func TestDescriptorConversions(t *testing.T) {
	if got := DescriptorForClass("java.lang.String"); got != "Ljava/lang/String;" {
		t.Errorf("DescriptorForClass = %q", got)
	}
	cls, err := ClassForDescriptor("Ljava/lang/String;")
	if err != nil || cls != "java.lang.String" {
		t.Errorf("ClassForDescriptor = %q, %v", cls, err)
	}
	if _, err := ClassForDescriptor("I"); err == nil {
		t.Error("primitive descriptor should not convert to a class")
	}
}

func TestQualifiedNameAndPackage(t *testing.T) {
	m := sampleMethod()
	if got := m.QualifiedName(); got != "com.unity3d.ads.android.cache.b.doInBackground" {
		t.Errorf("QualifiedName = %q", got)
	}
	if got := m.Package(); got != "com.unity3d.ads.android.cache" {
		t.Errorf("Package = %q", got)
	}
	solo := Method{Class: "Toplevel", Name: "f", Return: "V"}
	if got := solo.Package(); got != "" {
		t.Errorf("default-package method Package() = %q, want empty", got)
	}
}

func TestFileAddAndLookup(t *testing.T) {
	f := NewFile(time.Now())
	m := sampleMethod()
	if err := f.AddMethod(m); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMethod(m); err == nil {
		t.Error("duplicate signature should be rejected")
	}
	// An overload with different params is fine.
	over := m
	over.Params = []string{"I"}
	if err := f.AddMethod(over); err != nil {
		t.Fatalf("overload rejected: %v", err)
	}
	if f.MethodCount() != 2 {
		t.Errorf("MethodCount = %d, want 2", f.MethodCount())
	}
	if _, ok := f.LookupSignature(m.TypeSignature()); !ok {
		t.Error("LookupSignature missed an added method")
	}
	variants := f.LookupQualified(m.QualifiedName())
	if len(variants) != 2 {
		t.Errorf("LookupQualified returned %d variants, want 2", len(variants))
	}
	if _, err := f.MethodAt(5); err == nil {
		t.Error("MethodAt out of range should fail")
	}
}

func TestClassesAndPackagesSorted(t *testing.T) {
	f := NewFile(time.Time{})
	for i, cls := range []string{"b.pkg.C", "a.pkg.B", "a.pkg.B"} {
		if err := f.AddMethod(Method{Class: cls, Name: "f" + string(rune('a'+i)), Return: "V"}); err != nil {
			t.Fatal(err)
		}
	}
	classes := f.Classes()
	if !reflect.DeepEqual(classes, []string{"a.pkg.B", "b.pkg.C"}) {
		t.Errorf("Classes = %v", classes)
	}
	pkgs := f.Packages()
	if !reflect.DeepEqual(pkgs, []string{"a.pkg", "b.pkg"}) {
		t.Errorf("Packages = %v", pkgs)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := NewFile(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	methods := []Method{
		sampleMethod(),
		{Class: "a.b.C", Name: "g", Params: []string{"I", "I"}, Return: "I"},
		{Class: "a.b.C", Name: "g", Params: []string{"J"}, Return: "I"},
		{Class: "x.y.Z$1", Name: "run", Return: "V"},
	}
	for _, m := range methods {
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Created.Equal(f.Created) {
		t.Errorf("Created changed: %v != %v", decoded.Created, f.Created)
	}
	if !reflect.DeepEqual(decoded.Methods(), f.Methods()) {
		t.Error("method lists differ after round trip")
	}
}

func TestEncodeDecodeDefaultTimestamp(t *testing.T) {
	f := NewFile(DefaultDexTime)
	if err := f.AddMethod(Method{Class: "a.B", Name: "f", Return: "V"}); err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Created.Equal(DefaultDexTime) {
		t.Errorf("default dex time not preserved: %v", decoded.Created)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a dex"),
		[]byte("SDEX"),         // truncated after magic
		[]byte("SDEX\x09\x00"), // bad version
		append([]byte("SDEX\x01\x00"), make([]byte, 4)...), // truncated body
	}
	for _, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%q) should fail", data)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	f := NewFile(time.Now())
	for i := 0; i < 20; i++ {
		if err := f.AddMethod(Method{Class: "a.B", Name: "f" + string(rune('a'+i)), Return: "V"}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(data))
		}
	}
}

// TestEncodeDecodeProperty round-trips generated method sets.
func TestEncodeDecodeProperty(t *testing.T) {
	descriptors := []string{"V", "I", "J", "Z", "[B", "Ljava/lang/String;", "[Ljava/lang/Object;"}
	check := func(seed uint16) bool {
		f := NewFile(time.Unix(int64(seed)*1000, 0).UTC())
		n := int(seed%40) + 1
		for i := 0; i < n; i++ {
			m := Method{
				Class:  "p" + strings.Repeat("x", int(seed%5)) + ".C" + string(rune('A'+i%26)),
				Name:   "m" + string(rune('a'+(i*7)%26)),
				Params: []string{descriptors[(i+int(seed))%len(descriptors)]},
				Return: descriptors[i%len(descriptors)],
			}
			if m.Params[0] == "V" {
				m.Params = nil // void is not a parameter type
			}
			if err := f.AddMethod(m); err != nil {
				// Duplicate within the generated set: skip.
				continue
			}
		}
		data, err := f.Encode()
		if err != nil {
			return false
		}
		decoded, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(decoded.Methods(), f.Methods())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDisassemble(t *testing.T) {
	f := NewFile(time.Now())
	m1 := sampleMethod()
	m2 := Method{Class: "a.B", Name: "f", Return: "V"}
	for _, m := range []Method{m1, m2} {
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Disassemble(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.MethodCount != 2 || len(d.Signatures) != 2 {
		t.Errorf("disassembly has %d/%d entries, want 2", d.MethodCount, len(d.Signatures))
	}
	if !d.Contains(m1.TypeSignature()) || !d.Contains(m2.TypeSignature()) {
		t.Error("disassembly missing signatures")
	}
	if d.Contains("La/B;->g()V") {
		t.Error("disassembly contains a signature it should not")
	}
	// Signatures are sorted.
	for i := 1; i < len(d.Signatures); i++ {
		if d.Signatures[i-1] > d.Signatures[i] {
			t.Error("signatures not sorted")
		}
	}
	if _, err := Disassemble([]byte("junk")); err == nil {
		t.Error("Disassemble of junk should fail")
	}
}

func TestSignatureTranslator(t *testing.T) {
	f := NewFile(time.Now())
	overloads := []Method{
		{Class: "com.x.C", Name: "load", Params: nil, Return: "V"},
		{Class: "com.x.C", Name: "load", Params: []string{"I"}, Return: "V"},
		{Class: "com.x.C", Name: "load", Params: []string{"I", "J"}, Return: "V"},
	}
	for _, m := range overloads {
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewSignatureTranslator(f)
	sig, ok := tr.Translate("com.x.C.load", 2)
	if !ok || sig != overloads[2].TypeSignature() {
		t.Errorf("Translate arity 2 = %q, %v", sig, ok)
	}
	sig, ok = tr.Translate("com.x.C.load", -1)
	if !ok || sig != overloads[0].TypeSignature() {
		t.Errorf("Translate arity -1 = %q, %v", sig, ok)
	}
	// Arity mismatch falls back to the first variant.
	sig, ok = tr.Translate("com.x.C.load", 9)
	if !ok || sig != overloads[0].TypeSignature() {
		t.Errorf("Translate arity 9 = %q, %v", sig, ok)
	}
	if _, ok := tr.Translate("java.net.Socket.connect", 2); ok {
		t.Error("framework method should not resolve in the app dex")
	}
}
