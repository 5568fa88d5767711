package dex

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// File is a parsed dex file: an ordered set of method definitions plus the
// creation timestamp that AndroZoo exposes as the "dex date" (§III-A).
type File struct {
	// Created is the dex creation timestamp. The zero value encodes the
	// "default dex time stamp" (01-01-1980) the paper special-cases during
	// apk selection.
	Created time.Time

	methods []Method
	// sigs holds each method's type signature, rendered once by AddMethod
	// and parallel to methods: every reader indexes it instead of
	// re-rendering.
	sigs []string
	// bySig indexes methods by full type signature for O(1) lookups.
	bySig map[string]int
	// byQualified indexes method indices by dotted qualified name; a
	// qualified name maps to several indices when the method is overloaded.
	byQualified map[string][]int
}

// DefaultDexTime is the default dex timestamp (January 1, 1980 UTC) that
// build toolchains emit when reproducible builds strip real dates.
var DefaultDexTime = time.Date(1980, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewFile creates an empty dex file with the given creation time.
func NewFile(created time.Time) *File {
	return &File{
		Created:     created,
		bySig:       make(map[string]int),
		byQualified: make(map[string][]int),
	}
}

// Grow reserves room for n more method definitions, so a file whose size
// is known up front fills without reallocating its method list or
// rehashing its indexes. The indexes are only re-reserved while the file
// is still empty; n <= 0 is a no-op.
func (f *File) Grow(n int) {
	if n <= 0 {
		return
	}
	f.methods = slices.Grow(f.methods, n)
	f.sigs = slices.Grow(f.sigs, n)
	if len(f.methods) == 0 {
		f.bySig = make(map[string]int, n)
		f.byQualified = make(map[string][]int, n)
	}
}

// AddMethod appends a method definition. Duplicate type signatures are
// rejected: a dex file defines each signature at most once.
func (f *File) AddMethod(m Method) error {
	sig := m.TypeSignature()
	if _, dup := f.bySig[sig]; dup {
		return fmt.Errorf("dex: duplicate method signature %s", sig)
	}
	idx := len(f.methods)
	f.methods = append(f.methods, m)
	f.sigs = append(f.sigs, sig)
	f.bySig[sig] = idx
	qn := m.QualifiedName()
	f.byQualified[qn] = append(f.byQualified[qn], idx)
	return nil
}

// MethodCount reports the number of method definitions.
func (f *File) MethodCount() int { return len(f.methods) }

// Methods returns a copy of the method list in definition order.
func (f *File) Methods() []Method {
	out := make([]Method, len(f.methods))
	copy(out, f.methods)
	return out
}

// MethodAt returns the i-th method definition.
func (f *File) MethodAt(i int) (Method, error) {
	if i < 0 || i >= len(f.methods) {
		return Method{}, fmt.Errorf("dex: method index %d out of range [0,%d)", i, len(f.methods))
	}
	return f.methods[i], nil
}

// SignatureAt returns the i-th method's type signature, the string
// MethodAt(i).TypeSignature() renders, without rendering it again.
func (f *File) SignatureAt(i int) (string, error) {
	if i < 0 || i >= len(f.sigs) {
		return "", fmt.Errorf("dex: method index %d out of range [0,%d)", i, len(f.sigs))
	}
	return f.sigs[i], nil
}

// LookupSignature returns the method with the given full type signature.
func (f *File) LookupSignature(sig string) (Method, bool) {
	idx, ok := f.bySig[sig]
	if !ok {
		return Method{}, false
	}
	return f.methods[idx], true
}

// LookupQualified returns all overloaded variants sharing the dotted
// qualified name (class + method name).
func (f *File) LookupQualified(qualified string) []Method {
	idxs := f.byQualified[qualified]
	if len(idxs) == 0 {
		return nil
	}
	out := make([]Method, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, f.methods[i])
	}
	return out
}

// Classes returns the sorted set of distinct class names defined in the
// file.
func (f *File) Classes() []string {
	seen := make(map[string]struct{})
	for _, m := range f.methods {
		seen[m.Class] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Packages returns the sorted set of distinct package names defined in the
// file.
func (f *File) Packages() []string {
	seen := make(map[string]struct{})
	for _, m := range f.methods {
		seen[m.Package()] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
