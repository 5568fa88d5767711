package dex

import (
	"fmt"
	"sort"
)

// Disassembly is the output of disassembling a dex container: the complete
// method-signature set of the file, the role dexlib2 plays in the paper
// (§III-B: "we use the dexlib2 library to extract all the method signatures
// contained in a particular apk").
type Disassembly struct {
	// Signatures is the sorted list of all smali type signatures.
	Signatures []string
	// SignatureSet is the same content as a membership set.
	SignatureSet map[string]struct{}
	// MethodCount is the total number of method definitions.
	MethodCount int
}

// Disassemble decodes the SDEX container and extracts its full
// method-signature set.
func Disassemble(container []byte) (*Disassembly, error) {
	f, err := Decode(container)
	if err != nil {
		return nil, fmt.Errorf("dex: disassemble: %w", err)
	}
	return DisassembleFile(f), nil
}

// DisassembleFile extracts the signature set from an in-memory dex file.
func DisassembleFile(f *File) *Disassembly {
	d := &Disassembly{
		Signatures:   append(make([]string, 0, len(f.sigs)), f.sigs...),
		SignatureSet: make(map[string]struct{}, len(f.sigs)),
		MethodCount:  len(f.sigs),
	}
	for _, sig := range f.sigs {
		d.SignatureSet[sig] = struct{}{}
	}
	sort.Strings(d.Signatures)
	return d
}

// Contains reports whether the signature set includes sig.
func (d *Disassembly) Contains(sig string) bool {
	_, ok := d.SignatureSet[sig]
	return ok
}

// SignatureTranslator resolves a stack frame's dotted qualified method name
// to full type signatures, the translation the custom Xposed module
// performs after parsing the apk's dex files (§II-B2a). Overloaded methods
// yield several candidates; the supervisor disambiguates with the runtime's
// parameter arity.
type SignatureTranslator struct {
	file *File
}

// NewSignatureTranslator builds a translator over a parsed dex file.
func NewSignatureTranslator(f *File) *SignatureTranslator {
	return &SignatureTranslator{file: f}
}

// Translate maps a dotted qualified name plus parameter arity to the
// matching full type signature. If arity is negative, the first variant in
// definition order is returned. Unknown frames (e.g. framework methods not
// present in the app's dex) are reported via ok=false; the supervisor then
// falls back to the qualified name itself.
func (t *SignatureTranslator) Translate(qualified string, arity int) (string, bool) {
	idxs := t.file.byQualified[qualified]
	if len(idxs) == 0 {
		return "", false
	}
	if arity >= 0 {
		for _, i := range idxs {
			if len(t.file.methods[i].Params) == arity {
				return t.file.sigs[i], true
			}
		}
	}
	// Negative arity, or an arity mismatch: the first variant in definition
	// order, still a signature of the right qualified name.
	return t.file.sigs[idxs[0]], true
}
