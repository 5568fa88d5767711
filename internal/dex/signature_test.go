package dex

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"
)

// referenceSignature renders a signature the straightforward way —
// descriptor conversion, then concatenation — for TypeSignature to match.
func referenceSignature(m Method) string {
	return DescriptorForClass(m.Class) + "->" + m.Name + "(" + strings.Join(m.Params, "") + ")" + m.Return
}

var signatureSink string

// TypeSignature renders into one exactly-sized buffer: the result is the
// only allocation.
func TestTypeSignatureAllocatesOnce(t *testing.T) {
	m := Method{Class: "com.vendor.ads.cache.b", Name: "doInBackground",
		Params: []string{"[Ljava/lang/String;", "I"}, Return: "Ljava/lang/Object;"}
	allocs := testing.AllocsPerRun(200, func() { signatureSink = m.TypeSignature() })
	if allocs != 1 {
		t.Fatalf("TypeSignature makes %.1f allocs, want 1", allocs)
	}
}

// checkSignatureAt asserts the stored signatures agree with rendering.
func checkSignatureAt(t *testing.T, f *File) {
	t.Helper()
	for i := 0; i < f.MethodCount(); i++ {
		m, err := f.MethodAt(i)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := f.SignatureAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.TypeSignature(); sig != want {
			t.Fatalf("SignatureAt(%d) = %q, want %q", i, sig, want)
		}
	}
	for _, i := range []int{-1, f.MethodCount()} {
		if _, err := f.SignatureAt(i); err == nil {
			t.Errorf("SignatureAt(%d) on %d methods should fail", i, f.MethodCount())
		}
	}
}

func TestSignatureAtAfterAddAndDecode(t *testing.T) {
	f := NewFile(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	f.Grow(3) // reserving before any method is added must not change contents
	for _, m := range []Method{
		sampleMethod(),
		{Class: "a.B", Name: "f", Return: "V"},
		{Class: "a.B", Name: "f", Params: []string{"I"}, Return: "V"},
		{Class: "Main", Name: "main", Params: []string{"[Ljava/lang/String;"}, Return: "V"},
	} {
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	f.Grow(10) // and neither must reserving on a non-empty file
	checkSignatureAt(t, f)
	if variants := f.LookupQualified("a.B.f"); len(variants) != 2 {
		t.Errorf("LookupQualified after Grow returned %d variants, want 2", len(variants))
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	checkSignatureAt(t, decoded)
}

// hostileContainer builds an SDEX container whose header claims
// methodCount methods, with the given string pool and method-record bytes.
func hostileContainer(pool []string, methodCount uint32, records []byte) []byte {
	var buf bytes.Buffer
	buf.Write(sdexMagic[:])
	binary.Write(&buf, binary.LittleEndian, sdexVersion)
	binary.Write(&buf, binary.LittleEndian, int64(0))
	binary.Write(&buf, binary.LittleEndian, uint32(len(pool)))
	for _, s := range pool {
		buf.Write(binary.AppendUvarint(nil, uint64(len(s))))
		buf.WriteString(s)
	}
	binary.Write(&buf, binary.LittleEndian, methodCount)
	buf.Write(records)
	return buf.Bytes()
}

// decodeTotalAlloc returns Decode's error and the bytes it allocated.
func decodeTotalAlloc(data []byte) (error, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	return err, after.TotalAlloc - before.TotalAlloc
}

// Decode reserves from the header's method count, so the count is capped
// at what the bytes after it can encode. A 1 MiB container whose header
// claims ~1M methods but whose body is truncated after one record must
// fail and allocate at most 4× its size: the pool string it copies (twice,
// buffer then string) plus a reservation sized by the few body bytes, not
// by the claim. Reserving the claimed count would take ~200 MiB.
func TestDecodeHostileMethodCountBoundedAllocation(t *testing.T) {
	const size = 1 << 20
	// Below the container size, so the older count-vs-size check passes.
	const claimed = 1_000_000
	// The pool's second string fills the container. One valid record
	// (class, name and return all pool[0], no params), then a truncated one.
	records := []byte{0, 0, 0, 0, 0, 0, 0}
	overhead := len(hostileContainer([]string{"a", ""}, claimed, records))
	data := hostileContainer([]string{"a", strings.Repeat("a", size-overhead-3)}, claimed, records)
	if len(data) > size || len(data) < size-8 {
		t.Fatalf("container is %d bytes, want ~%d", len(data), size)
	}
	err, alloc := decodeTotalAlloc(data)
	if err == nil {
		t.Fatal("truncated container decoded")
	}
	t.Logf("Decode allocated %d bytes (%.2f× the container)", alloc, float64(alloc)/float64(len(data)))
	if limit := uint64(4 * len(data)); alloc > limit {
		t.Fatalf("Decode allocated %d bytes for a %d-byte container, want at most %d (4×)", alloc, len(data), limit)
	}
}

// When the bytes after the header are all method records, the cap lets
// Decode reserve len/4 methods — what a valid container of that size can
// hold. That is the worst case, and it stays linear in the input: at most
// 96× its size (about 60× measured, mostly the two indexes' tables).
func TestDecodeHostileRecordBodyBoundedAllocation(t *testing.T) {
	const size = 1 << 20
	// Every record reads as pool[0] → duplicates from the second record on.
	data := hostileContainer([]string{"a"}, 1_000_000, nil)
	data = append(data, make([]byte, size-len(data))...)
	err, alloc := decodeTotalAlloc(data)
	if err == nil {
		t.Fatal("container of duplicate records decoded")
	}
	t.Logf("Decode allocated %d bytes (%.1f× the container)", alloc, float64(alloc)/float64(len(data)))
	if limit := uint64(96 * len(data)); alloc > limit {
		t.Fatalf("Decode allocated %d bytes for a %d-byte container, want at most %d (96×)", alloc, len(data), limit)
	}
}
