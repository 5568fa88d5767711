package dex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"
)

// Binary container format ("SDEX"), a compact dex-like layout:
//
//	magic      [4]byte  "SDEX"
//	version    uint16   (currently 1)
//	created    int64    unix seconds (0 encodes DefaultDexTime)
//	stringPool uint32 count, then per string: uvarint length + bytes
//	methods    uint32 count, then per method:
//	             class  uvarint string-pool index
//	             name   uvarint string-pool index
//	             return uvarint string-pool index
//	             nparam uvarint, then per param: uvarint string-pool index
//
// The string pool deduplicates class names and descriptors, mirroring how
// real dex files intern strings and type ids.

var sdexMagic = [4]byte{'S', 'D', 'E', 'X'}

const sdexVersion uint16 = 1

// Encode serializes the file into the SDEX container format.
func (f *File) Encode() ([]byte, error) {
	pool := make([]string, 0, len(f.methods)*2)
	poolIdx := make(map[string]uint64, len(f.methods)*2)
	intern := func(s string) uint64 {
		if i, ok := poolIdx[s]; ok {
			return i
		}
		i := uint64(len(pool))
		pool = append(pool, s)
		poolIdx[s] = i
		return i
	}

	type encMethod struct {
		class, name, ret uint64
		params           []uint64
	}
	encoded := make([]encMethod, 0, len(f.methods))
	for _, m := range f.methods {
		em := encMethod{
			class:  intern(m.Class),
			name:   intern(m.Name),
			ret:    intern(m.Return),
			params: make([]uint64, 0, len(m.Params)),
		}
		for _, p := range m.Params {
			em.params = append(em.params, intern(p))
		}
		encoded = append(encoded, em)
	}

	var buf bytes.Buffer
	buf.Write(sdexMagic[:])
	var scratch [binary.MaxVarintLen64]byte
	writeU16 := func(v uint16) {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		buf.Write(scratch[:2])
	}
	writeU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf.Write(scratch[:4])
	}
	writeI64 := func(v int64) {
		binary.LittleEndian.PutUint64(scratch[:8], uint64(v))
		buf.Write(scratch[:8])
	}
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}

	writeU16(sdexVersion)
	created := int64(0)
	if !f.Created.IsZero() && !f.Created.Equal(DefaultDexTime) {
		created = f.Created.Unix()
	}
	writeI64(created)

	writeU32(uint32(len(pool)))
	for _, s := range pool {
		writeUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	writeU32(uint32(len(encoded)))
	for _, em := range encoded {
		writeUvarint(em.class)
		writeUvarint(em.name)
		writeUvarint(em.ret)
		writeUvarint(uint64(len(em.params)))
		for _, p := range em.params {
			writeUvarint(p)
		}
	}
	return buf.Bytes(), nil
}

// Decode parses an SDEX container produced by Encode.
func Decode(data []byte) (*File, error) {
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := r.Read(magic[:]); err != nil {
		return nil, fmt.Errorf("dex: reading magic: %w", err)
	}
	if magic != sdexMagic {
		return nil, fmt.Errorf("dex: bad magic %q, want %q", magic[:], sdexMagic[:])
	}
	var version uint16
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("dex: reading version: %w", err)
	}
	if version != sdexVersion {
		return nil, fmt.Errorf("dex: unsupported container version %d", version)
	}
	var createdUnix int64
	if err := binary.Read(r, binary.LittleEndian, &createdUnix); err != nil {
		return nil, fmt.Errorf("dex: reading timestamp: %w", err)
	}
	created := DefaultDexTime
	if createdUnix != 0 {
		created = time.Unix(createdUnix, 0).UTC()
	}

	var poolLen uint32
	if err := binary.Read(r, binary.LittleEndian, &poolLen); err != nil {
		return nil, fmt.Errorf("dex: reading string-pool length: %w", err)
	}
	if uint64(poolLen) > uint64(len(data)) {
		return nil, fmt.Errorf("dex: string-pool length %d exceeds container size %d", poolLen, len(data))
	}
	pool := make([]string, poolLen)
	for i := range pool {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dex: reading string %d length: %w", i, err)
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("dex: string %d length %d exceeds container size", i, n)
		}
		b := make([]byte, n)
		if _, err := fullRead(r, b); err != nil {
			return nil, fmt.Errorf("dex: reading string %d: %w", i, err)
		}
		pool[i] = string(b)
	}

	var methodCount uint32
	if err := binary.Read(r, binary.LittleEndian, &methodCount); err != nil {
		return nil, fmt.Errorf("dex: reading method count: %w", err)
	}
	if uint64(methodCount) > uint64(len(data)) {
		return nil, fmt.Errorf("dex: method count %d exceeds container size", methodCount)
	}
	f := NewFile(created)
	// Reserve from the header's count, capped at what the remaining bytes
	// can encode (each record is at least four uvarints), so a hostile
	// header cannot make Decode reserve out of proportion to its input.
	f.Grow(min(int(methodCount), r.Len()/4))
	lookup := func(idx uint64, what string, i uint32) (string, error) {
		if idx >= uint64(len(pool)) {
			return "", fmt.Errorf("dex: method %d %s index %d out of pool range %d", i, what, idx, len(pool))
		}
		return pool[idx], nil
	}
	for i := uint32(0); i < methodCount; i++ {
		classIdx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dex: reading method %d class: %w", i, err)
		}
		nameIdx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dex: reading method %d name: %w", i, err)
		}
		retIdx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dex: reading method %d return: %w", i, err)
		}
		nParams, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dex: reading method %d param count: %w", i, err)
		}
		if nParams > uint64(len(data)) {
			return nil, fmt.Errorf("dex: method %d param count %d exceeds container size", i, nParams)
		}
		m := Method{}
		if m.Class, err = lookup(classIdx, "class", i); err != nil {
			return nil, err
		}
		if m.Name, err = lookup(nameIdx, "name", i); err != nil {
			return nil, err
		}
		if m.Return, err = lookup(retIdx, "return", i); err != nil {
			return nil, err
		}
		if nParams > 0 {
			m.Params = make([]string, nParams)
		}
		for j := range m.Params {
			pIdx, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("dex: reading method %d param %d: %w", i, j, err)
			}
			if m.Params[j], err = lookup(pIdx, "param", i); err != nil {
				return nil, err
			}
		}
		if err := f.AddMethod(m); err != nil {
			return nil, fmt.Errorf("dex: decoding method %d: %w", i, err)
		}
	}
	return f, nil
}

// fullRead reads exactly len(b) bytes.
func fullRead(r *bytes.Reader, b []byte) (int, error) {
	total := 0
	for total < len(b) {
		n, err := r.Read(b[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
