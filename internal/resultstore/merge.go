package resultstore

import "fmt"

// MergeSegments decodes shard-flushed segments and merges their records
// into one canonically-ordered slice. Shards own contiguous app-index
// ranges, so segments arriving in shard order are already globally
// sorted and the merge is a validated concatenation; out-of-order or
// overlapping inputs (a coordinator bug, or segments from different
// campaigns) are still handled — the result is re-sorted — so the merged
// store is canonical either way.
func MergeSegments(segments [][]byte) ([]Record, error) {
	var all []Record
	sorted := true
	for i, seg := range segments {
		if len(seg) == 0 {
			continue
		}
		recs, err := DecodeSegment(seg)
		if err != nil {
			return nil, fmt.Errorf("resultstore: segment %d: %w", i, err)
		}
		if len(all) > 0 && len(recs) > 0 && !all[len(all)-1].less(&recs[0]) {
			sorted = false
		}
		all = append(all, recs...)
	}
	if !sorted {
		SortRecords(all)
	}
	for i := 1; i < len(all); i++ {
		if !all[i-1].less(&all[i]) {
			return nil, fmt.Errorf("%w: duplicate record for app %d flow %d across segments",
				ErrCorruptStore, all[i].AppIndex, all[i].FlowIndex)
		}
	}
	return all, nil
}

// WriteSegments merges shard segments and commits the canonical store
// file — the store-merge path FinishCampaign drives. Returns the
// record count written. Because the same Builder encodes both this and
// the single-process path, an N-shard campaign's merged store is
// byte-identical to a single-process same-seed store.
func WriteSegments(path string, segments [][]byte) (int, error) {
	recs, err := MergeSegments(segments)
	if err != nil {
		return 0, err
	}
	if err := Write(path, recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}
