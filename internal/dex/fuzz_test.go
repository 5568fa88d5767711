package dex

import (
	"testing"
	"time"
)

// FuzzDecode hardens the SDEX container decoder: no panics, accepted
// containers must re-encode and re-decode to the same method count, and
// every stored signature must equal its method's rendering. Decode
// reserves from the untrusted header's method count, so the fuzzer also
// exercises that cap.
func FuzzDecode(f *testing.F) {
	file := NewFile(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	if err := file.AddMethod(sampleMethod()); err != nil {
		f.Fatal(err)
	}
	valid, err := file.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("SDEX\x01\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		checkSignatureAt(t, decoded)
		re, err := decoded.Encode()
		if err != nil {
			t.Fatalf("accepted container does not re-encode: %v", err)
		}
		again, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded container does not decode: %v", err)
		}
		if again.MethodCount() != decoded.MethodCount() {
			t.Fatalf("method count drifted: %d vs %d", again.MethodCount(), decoded.MethodCount())
		}
	})
}

// FuzzParseTypeSignature checks the smali signature parser is total and
// that parse→render→parse is stable.
func FuzzParseTypeSignature(f *testing.F) {
	f.Add("Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;")
	f.Add("La/B;->f()V")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, sig string) {
		m, err := ParseTypeSignature(sig)
		if err != nil {
			return
		}
		again, err := ParseTypeSignature(m.TypeSignature())
		if err != nil {
			t.Fatalf("rendered signature does not re-parse: %v", err)
		}
		if again.TypeSignature() != m.TypeSignature() {
			t.Fatalf("signature not stable: %q vs %q", again.TypeSignature(), m.TypeSignature())
		}
	})
}
