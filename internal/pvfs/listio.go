package pvfs

import "context"

// This file is the client half of the one data op (list I/O in the
// ROMIO/PVFS literature): everything a read or write needs from one
// data server travels as a single segment-list request — OpListRead,
// OpListWrite or a duplication write — whether it is one contiguous run
// or the per-server decomposition of many discontiguous logical ranges.
// A strided read touching k stripes of one server costs 1 RPC instead
// of k.

// ReadRuns reads every stripe run in runs (which must all name this
// server) into p with one list read, placing each run's bytes at its
// BufOff and zero-filling hole/EOF tails. Runs may be unsorted and may
// overlap in the piece. Disjoint runs — the shape striping produces —
// are read straight off the socket into their regions of p; only an
// overlapping list's payload goes through a pooled buffer and scatter.
func (d *DataConn) ReadRuns(ctx context.Context, handle uint64, runs []StripeRun, p []byte) error {
	if len(runs) == 0 {
		return nil
	}
	segs, group := mergeRuns(runs)
	resp := getResp()
	resp.into = destinations(runs, p, resp.into)
	err := d.t.callInto(ctx, &Request{Op: OpListRead, Handle: handle, Segs: segs}, resp)
	if err == nil && !resp.OK {
		err = resp.err()
	}
	if err == nil && resp.into == nil {
		scatter(resp, segs, group, runs, p)
	}
	putResp(resp)
	if err != nil {
		return err
	}
	d.t.observeBatch(len(runs), 1)
	return nil
}

// destinations returns the runs' regions of p in piece order — the
// order a list read's payload arrives in — reusing into's storage, or
// nil when two runs overlap in the piece.
func destinations(runs []StripeRun, p []byte, into [][]byte) [][]byte {
	var order []int // nil while the runs are already in piece order
	for i := 1; i < len(runs); i++ {
		if runs[i].ServerOff < runs[i-1].ServerOff {
			order = sortedIndex(len(runs), func(i int) int64 { return runs[i].ServerOff })
			break
		}
	}
	into = into[:0]
	var end int64
	for k := range runs {
		r := runs[k]
		if order != nil {
			r = runs[order[k]]
		}
		if k > 0 && r.ServerOff < end {
			clear(into)
			return nil
		}
		end = r.ServerOff + r.Length
		into = append(into, p[r.BufOff:r.BufOff+r.Length])
	}
	return into
}

// scatter copies an overlapping list read's segment payloads, already
// checked against the request by readResponse, to the runs'
// destinations in p and zero-fills what the server could not serve.
func scatter(resp *Response, segs []Seg, group []int, runs []StripeRun, p []byte) {
	// Slice the concatenated payload back into per-segment views (on
	// the stack for the few-segment lists striping produces).
	data := resp.Data
	var few [4][]byte
	views := few[:]
	if len(segs) > len(few) {
		views = make([][]byte, len(segs))
	}
	for i := range segs {
		views[i] = data[:resp.SegLens[i]]
		data = data[resp.SegLens[i]:]
	}
	for i, r := range runs {
		view := views[group[i]]
		rel := r.ServerOff - segs[group[i]].Offset
		served := min(max(int64(len(view))-rel, 0), r.Length)
		dst := p[r.BufOff : r.BufOff+r.Length]
		if served > 0 {
			copy(dst, view[rel:rel+served])
		}
		// Holes and EOF read back as zeros.
		clear(dst[served:])
	}
}

// oneGroup is mergeRuns' group result for a single run.
var oneGroup = []int{0}

// mergeRuns turns one server's runs into its wire segment list: the
// runs in ascending piece order, with overlapping and piece-adjacent
// ones merged into maximal segments. Consecutive stripes of one server
// abut in its piece even when they are far apart in the logical file,
// so a stripe-aligned read that decompose split at every stripe
// boundary collapses to one segment per server here — a smaller
// request on the wire and one ReadAt instead of k on the server.
// group[i] is the segment that covers runs[i].
func mergeRuns(runs []StripeRun) (segs []Seg, group []int) {
	if len(runs) == 1 {
		return []Seg{{Offset: runs[0].ServerOff, Length: runs[0].Length}}, oneGroup
	}
	var order []int // nil while the runs are already in piece order
	for i := 1; i < len(runs); i++ {
		if runs[i].ServerOff < runs[i-1].ServerOff {
			order = sortedIndex(len(runs), func(i int) int64 { return runs[i].ServerOff })
			break
		}
	}
	segs = make([]Seg, 0, len(runs))
	group = make([]int, len(runs))
	for k := range runs {
		i := k
		if order != nil {
			i = order[k]
		}
		r := runs[i]
		if n := len(segs); n > 0 && r.ServerOff <= segs[n-1].Offset+segs[n-1].Length {
			segs[n-1].Length = max(segs[n-1].Length, r.ServerOff+r.Length-segs[n-1].Offset)
		} else {
			segs = append(segs, Seg{Offset: r.ServerOff, Length: r.Length})
		}
		group[i] = len(segs) - 1
	}
	return segs, group
}

// WriteRuns writes every stripe run in runs (which must all name this
// server) from p with one OpListWrite. Runs must not overlap in the
// piece (the server rejects a list that does); piece-adjacent runs
// travel as one segment.
func (d *DataConn) WriteRuns(ctx context.Context, handle uint64, runs []StripeRun, p []byte) error {
	if len(runs) == 0 {
		return nil
	}
	// The payload is the runs' bytes in list order, which stays the
	// segments' bytes in list order when consecutive runs merge.
	segs := make([]Seg, 0, len(runs))
	for _, r := range runs {
		if n := len(segs); n > 0 && segs[n-1].Offset+segs[n-1].Length == r.ServerOff {
			segs[n-1].Length += r.Length
		} else {
			segs = append(segs, Seg{Offset: r.ServerOff, Length: r.Length})
		}
	}
	req := &Request{Op: OpListWrite, Handle: handle, Segs: segs}
	if len(runs) == 1 {
		req.Data = p[runs[0].BufOff : runs[0].BufOff+runs[0].Length]
	} else {
		// The runs' slices of p go out in one vectored write, unjoined.
		req.gather = make([][]byte, len(runs))
		for i, r := range runs {
			req.gather[i] = p[r.BufOff : r.BufOff+r.Length]
		}
	}
	resp := getResp()
	err := d.t.callInto(ctx, req, resp)
	if err == nil && !resp.OK {
		err = resp.err()
	}
	putResp(resp)
	if err != nil {
		return err
	}
	d.t.observeBatch(len(runs), 1)
	return nil
}
