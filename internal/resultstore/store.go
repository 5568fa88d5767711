package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"libspector/internal/codec"
	"libspector/internal/journal"
)

// Store file layout — one self-verifying file, every region CRC-framed:
//
//	"LSSTORE1"                                   file magic (8 bytes)
//	segment * N                                  blocks: sealed "LSSEG001" frames,
//	                                             blockRows records each, canonical order
//	"LSIDX001" | index body | crc32c             sorted block index + bloom filters
//	"LSFOOT01" | uint64 LE index offset | crc32c fixed 20-byte footer
//
// The footer is found at a fixed offset from the end, the index frame
// must end exactly where the footer begins, and the block entries must
// tile the region between file magic and index exactly — so truncation,
// appended garbage, or a crash mid-write at any byte fails Open with
// ErrCorruptStore instead of serving partial results. Blocks verify
// their own CRC lazily, on first decode.

const (
	fileMagic   = "LSSTORE1"
	indexMagic  = "LSIDX001"
	footerMagic = "LSFOOT01"
	footerSize  = len(footerMagic) + 8 + 4

	// blockRows is the block fan-out: small enough that a point lookup
	// decodes little beyond its answer, large enough that per-block
	// symbol tables and bloom filters amortize. Changing it changes
	// store bytes — it is part of the format.
	blockRows = 128
)

// blockMeta is one index entry: where the block's sealed segment lives,
// the app-index range it covers, and the per-dimension bloom filters a
// point lookup consults before paying for a decode.
type blockMeta struct {
	off, len       int
	rows           int
	minApp, maxApp int
	shas           bloom
	origins        bloom
	domains        bloom
}

// Store is an opened, index-verified store file. Queries and scans are
// read-only and safe for concurrent use: the only mutable state is the
// caller's. Block payloads are decoded (and CRC-verified) per call.
type Store struct {
	data    []byte
	blocks  []blockMeta
	records int
}

// Open reads and verifies a store file: magic, footer, index frame, and
// the exact tiling of blocks. Block bodies are verified lazily on first
// decode. Damage of any kind fails with a wrapped ErrCorruptStore.
func Open(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := OpenBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// OpenBytes opens a store image already in memory. The Store aliases
// data; the caller must not mutate it afterwards.
func OpenBytes(data []byte) (*Store, error) {
	if len(data) < len(fileMagic)+footerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than magic+footer", ErrCorruptStore, len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: bad file magic %q", ErrCorruptStore, data[:len(fileMagic)])
	}
	footer := data[len(data)-footerSize:]
	if _, err := codec.Open(footerMagic, footer); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorruptStore, err)
	}
	idxOff := int(leUint64(footer[len(footerMagic):]))
	if idxOff < len(fileMagic) || idxOff > len(data)-footerSize {
		return nil, fmt.Errorf("%w: index offset %d outside file", ErrCorruptStore, idxOff)
	}
	idxBody, err := codec.Open(indexMagic, data[idxOff:len(data)-footerSize])
	if err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrCorruptStore, err)
	}

	d := &segDecoder{b: idxBody}
	nBlocks := d.length()
	if d.err != nil {
		return nil, d.err
	}
	s := &Store{data: data, blocks: make([]blockMeta, 0, nBlocks)}
	next := len(fileMagic)
	prevMax := -1
	for i := 0; i < nBlocks; i++ {
		m := blockMeta{
			off:    int(d.uvarint()),
			len:    int(d.uvarint()),
			rows:   int(d.uvarint()),
			minApp: int(d.uvarint()),
			maxApp: int(d.uvarint()),
		}
		m.shas = bloom{bits: d.bytes()}
		m.origins = bloom{bits: d.bytes()}
		m.domains = bloom{bits: d.bytes()}
		if d.err != nil {
			return nil, d.err
		}
		if m.off != next || m.len <= 0 || m.off+m.len > idxOff {
			return nil, fmt.Errorf("%w: block %d at [%d,%d) does not tile the data region (expected offset %d, index at %d)",
				ErrCorruptStore, i, m.off, m.off+m.len, next, idxOff)
		}
		if m.rows <= 0 || m.rows > blockRows {
			return nil, fmt.Errorf("%w: block %d claims %d rows (fan-out is %d)", ErrCorruptStore, i, m.rows, blockRows)
		}
		if m.minApp > m.maxApp || m.minApp < prevMax {
			return nil, fmt.Errorf("%w: block %d app range [%d,%d] breaks sorted order (previous max %d)",
				ErrCorruptStore, i, m.minApp, m.maxApp, prevMax)
		}
		prevMax = m.maxApp
		next = m.off + m.len
		s.records += m.rows
		s.blocks = append(s.blocks, m)
	}
	if d.pos != len(idxBody) {
		return nil, fmt.Errorf("%w: %d trailing bytes after index decode", ErrCorruptStore, len(idxBody)-d.pos)
	}
	if next != idxOff {
		return nil, fmt.Errorf("%w: %d unindexed bytes between last block and index", ErrCorruptStore, idxOff-next)
	}
	return s, nil
}

// bytes reads a length-prefixed byte slice (used for bloom bits).
func (d *segDecoder) bytes() []byte {
	n := d.length()
	if d.err != nil {
		return nil
	}
	b := d.b[d.pos : d.pos+n]
	d.pos += n
	return b
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Records is the total row count, from the verified index.
func (s *Store) Records() int { return s.records }

// Blocks is the block count.
func (s *Store) Blocks() int { return len(s.blocks) }

// decodeBlock decodes (and CRC-verifies) one block.
func (s *Store) decodeBlock(i int) ([]Record, error) {
	m := &s.blocks[i]
	recs, err := DecodeSegment(s.data[m.off : m.off+m.len])
	if err != nil {
		return nil, fmt.Errorf("block %d: %w", i, err)
	}
	if len(recs) != m.rows {
		return nil, fmt.Errorf("%w: block %d decoded %d rows, index says %d", ErrCorruptStore, i, len(recs), m.rows)
	}
	return recs, nil
}

// Scan decodes every block in order and calls fn for each record in
// canonical order. It is the full-table read the benchmarks compare
// point lookups against.
func (s *Store) Scan(fn func(*Record) error) error {
	for i := range s.blocks {
		recs, err := s.decodeBlock(i)
		if err != nil {
			return err
		}
		for j := range recs {
			if err := fn(&recs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Verify decodes and CRC-checks every block — the audit path.
func (s *Store) Verify() error {
	return s.Scan(func(*Record) error { return nil })
}

// GroupDim selects the grouping dimension of a query.
type GroupDim int

const (
	GroupNone   GroupDim = iota
	GroupApp             // group by app sha
	GroupOrigin          // group by origin library
	GroupDomain          // group by domain
)

// Query is a conjunctive point/filter query. Empty string fields are
// unset. Exactly the questions the paper's analysts asked the DB server:
// by origin library, by domain, by app — alone or combined.
type Query struct {
	AppSHA  string
	Origin  string
	Domain  string
	GroupBy GroupDim
}

// Rollup is the aggregate over every record a query matched.
type Rollup struct {
	Flows         int64
	Attributed    int64
	BytesSent     int64
	BytesReceived int64
	PacketsSent   int64
	PacketsRecv   int64
	Apps          int // distinct app SHAs
	Origins       int // distinct non-empty origin libraries
	Domains       int // distinct non-empty domains
}

// Group is one grouped aggregate row.
type Group struct {
	Key           string
	Flows         int64
	BytesSent     int64
	BytesReceived int64
}

// Result carries a query's rollup, optional grouping, and the number of
// blocks actually decoded — the pruning the index bought, which the
// point-lookup benchmark and tests assert on.
type Result struct {
	Rollup        Rollup
	Groups        []Group
	BlocksScanned int
}

// Query answers a filtered rollup from disk. Block selection consults
// the sorted index's bloom filters for every set filter, so a point
// lookup decodes only the (usually few) blocks that may contain matches;
// residual filtering after decode discards bloom false positives. With
// no filters set it degenerates to a full scan.
func (s *Store) Query(q Query) (*Result, error) {
	res := &Result{}
	apps := map[string]struct{}{}
	origins := map[string]struct{}{}
	domains := map[string]struct{}{}
	groups := map[string]*Group{}

	for i := range s.blocks {
		m := &s.blocks[i]
		if q.AppSHA != "" && !m.shas.test(q.AppSHA) {
			continue
		}
		if q.Origin != "" && !m.origins.test(q.Origin) {
			continue
		}
		if q.Domain != "" && !m.domains.test(q.Domain) {
			continue
		}
		recs, err := s.decodeBlock(i)
		if err != nil {
			return nil, err
		}
		res.BlocksScanned++
		for j := range recs {
			r := &recs[j]
			if q.AppSHA != "" && r.AppSHA != q.AppSHA {
				continue
			}
			if q.Origin != "" && r.Origin != q.Origin {
				continue
			}
			if q.Domain != "" && r.Domain != q.Domain {
				continue
			}
			res.Rollup.Flows++
			if r.Attributed {
				res.Rollup.Attributed++
			}
			res.Rollup.BytesSent += r.BytesSent
			res.Rollup.BytesReceived += r.BytesReceived
			res.Rollup.PacketsSent += r.PacketsSent
			res.Rollup.PacketsRecv += r.PacketsRecv
			apps[r.AppSHA] = struct{}{}
			if r.Origin != "" {
				origins[r.Origin] = struct{}{}
			}
			if r.Domain != "" {
				domains[r.Domain] = struct{}{}
			}
			if q.GroupBy != GroupNone {
				key := r.AppSHA
				switch q.GroupBy {
				case GroupOrigin:
					key = r.Origin
				case GroupDomain:
					key = r.Domain
				}
				g := groups[key]
				if g == nil {
					g = &Group{Key: key}
					groups[key] = g
				}
				g.Flows++
				g.BytesSent += r.BytesSent
				g.BytesReceived += r.BytesReceived
			}
		}
	}
	res.Rollup.Apps = len(apps)
	res.Rollup.Origins = len(origins)
	res.Rollup.Domains = len(domains)
	if q.GroupBy != GroupNone {
		res.Groups = make([]Group, 0, len(groups))
		for _, g := range groups {
			res.Groups = append(res.Groups, *g)
		}
		// Heaviest traffic first; key breaks ties deterministically.
		sort.Slice(res.Groups, func(i, j int) bool {
			ti := res.Groups[i].BytesSent + res.Groups[i].BytesReceived
			tj := res.Groups[j].BytesSent + res.Groups[j].BytesReceived
			if ti != tj {
				return ti > tj
			}
			return res.Groups[i].Key < res.Groups[j].Key
		})
	}
	return res, nil
}

// buildImage encodes the canonical store image for records already in
// canonical order. Same records in, same bytes out — the byte-identity
// the shard-invariance tests pin.
func buildImage(recs []Record) ([]byte, error) {
	b := []byte(fileMagic)
	var metas []blockMeta
	for lo := 0; lo < len(recs); lo += blockRows {
		hi := min(lo+blockRows, len(recs))
		block := recs[lo:hi]
		seg, err := EncodeSegment(block)
		if err != nil {
			return nil, err
		}
		m := blockMeta{
			off: len(b), len: len(seg), rows: len(block),
			minApp: block[0].AppIndex, maxApp: block[len(block)-1].AppIndex,
		}
		shas := distinct(block, func(r *Record) string { return r.AppSHA })
		orgs := distinct(block, func(r *Record) string { return r.Origin })
		doms := distinct(block, func(r *Record) string { return r.Domain })
		m.shas, m.origins, m.domains = newBloom(len(shas)), newBloom(len(orgs)), newBloom(len(doms))
		for _, k := range shas {
			m.shas.add(k)
		}
		for _, k := range orgs {
			m.origins.add(k)
		}
		for _, k := range doms {
			m.domains.add(k)
		}
		metas = append(metas, m)
		b = append(b, seg...)
	}

	idxOff := len(b)
	b = append(b, indexMagic...)
	idxBody := len(b)
	b = appendUvarint(b, uint64(len(metas)))
	for i := range metas {
		m := &metas[i]
		b = appendUvarint(b, uint64(m.off))
		b = appendUvarint(b, uint64(m.len))
		b = appendUvarint(b, uint64(m.rows))
		b = appendUvarint(b, uint64(m.minApp))
		b = appendUvarint(b, uint64(m.maxApp))
		for _, f := range []bloom{m.shas, m.origins, m.domains} {
			b = appendUvarint(b, uint64(len(f.bits)))
			b = append(b, f.bits...)
		}
	}
	b = codec.AppendSum(b, idxBody)

	b = append(b, footerMagic...)
	footBody := len(b)
	for i := 0; i < 8; i++ {
		b = append(b, byte(uint64(idxOff)>>(8*i)))
	}
	return codec.AppendSum(b, footBody), nil
}

// distinct collects the non-empty distinct values of one string column,
// in first-appearance order (ordering does not reach the file — bloom
// bits are order-independent — but determinism costs nothing).
func distinct(recs []Record, col func(*Record) string) []string {
	seen := make(map[string]struct{}, len(recs))
	var out []string
	for i := range recs {
		s := col(&recs[i])
		if s == "" {
			continue
		}
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// Write sorts records canonically and commits the store file atomically:
// temp file in the destination directory, fsync, rename, fsync of the
// directory. A crash at any point leaves either the previous file or
// none — never a torn store.
func Write(path string, recs []Record) error {
	SortRecords(recs)
	img, err := buildImage(recs)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-store-*")
	if err != nil {
		return fmt.Errorf("resultstore: creating temp store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(img); err != nil {
		_ = tmp.Close()
		cleanup()
		return fmt.Errorf("resultstore: writing store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		cleanup()
		return fmt.Errorf("resultstore: fsync store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("resultstore: closing store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("resultstore: committing store: %w", err)
	}
	return journal.SyncDir(dir)
}
