package pvfs

import "context"

// This file is the client half of the one data op (list I/O in the
// ROMIO/PVFS literature): everything a read or write needs from one
// data server travels as a single segment-list request — OpListRead or
// OpListWrite — whether it is one contiguous run or the per-server
// decomposition of many discontiguous logical ranges. A strided read
// touching k stripes of one server costs 1 RPC instead of k. A server's
// runs are ascending and disjoint in its piece — the only shape
// PlanRead and decompose produce — and so is every list sent.

// ReadRuns reads every stripe run in runs (which must all name this
// server and be ascending and disjoint in ServerOff) into p with one
// list read, placing each run's bytes at its BufOff and zero-filling
// hole/EOF tails. The payload is read straight off the socket into the
// runs' regions of p.
func (d *DataConn) ReadRuns(ctx context.Context, handle uint64, runs []StripeRun, p []byte) error {
	if len(runs) == 0 {
		return nil
	}
	resp := getResp()
	for _, r := range runs {
		resp.into = append(resp.into, p[r.BufOff:r.BufOff+r.Length])
	}
	err := d.t.callInto(ctx, &Request{Op: OpListRead, Handle: handle, Segs: segments(runs)}, resp)
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

// segments turns one server's runs, ascending and disjoint in its
// piece, into its wire segment list by coalescing piece-adjacent runs.
// Consecutive stripes of one server abut in its piece even when they
// are far apart in the logical file, so a stripe-aligned read that
// decompose split at every stripe boundary collapses to one segment per
// server here — a smaller request on the wire and one ReadAt instead of
// k on the server. The runs' regions, in run order, tile the segments
// in segment order, which is how readInto places a read's payload and
// how a write's payload is laid out.
func segments(runs []StripeRun) []Seg {
	segs := make([]Seg, 0, len(runs))
	for _, r := range runs {
		if n := len(segs); n > 0 && segs[n-1].Offset+segs[n-1].Length == r.ServerOff {
			segs[n-1].Length += r.Length
		} else {
			segs = append(segs, Seg{Offset: r.ServerOff, Length: r.Length})
		}
	}
	return segs
}

// WriteRuns writes every stripe run in runs (which must all name this
// server and be ascending and disjoint in ServerOff; the server rejects
// any other list) from p with one OpListWrite.
func (d *DataConn) WriteRuns(ctx context.Context, handle uint64, runs []StripeRun, p []byte) error {
	if len(runs) == 0 {
		return nil
	}
	req := &Request{Op: OpListWrite, Handle: handle, Segs: segments(runs)}
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
