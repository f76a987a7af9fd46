package pvfs

import (
	"fmt"
	"sync"

	"pario/internal/chio"
)

// This file is the striping planner and executor shared by every
// client of the data servers. The PVFS client executes a plan against
// one connection per server; CEFT-PVFS executes the same plan with a
// replica chosen per server.

// StripeRun is one contiguous piece of a striped access: Length bytes
// at ServerOff in data server Server's piece, and at BufOff in the
// caller's buffer.
type StripeRun struct {
	Server    int
	ServerOff int64
	BufOff    int64
	Length    int64
}

// decompose splits the logical range [off, off+length) into one run
// list per data server under round-robin striping. Each server's runs
// come out in ascending ServerOff (and BufOff) order.
func decompose(off, length, stripe int64, nServers int) [][]StripeRun {
	return appendRuns(make([][]StripeRun, nServers), off, length, 0, stripe)
}

// appendRuns adds the runs of the logical range [off, off+length),
// whose bytes live at bufOff in the caller's buffer, to the per-server
// lists in runs.
func appendRuns(runs [][]StripeRun, off, length, bufOff, stripe int64) [][]StripeRun {
	nServers := int64(len(runs))
	end := off + length
	for off < end {
		s := off / stripe
		server := int(s % nServers)
		inStripe := off % stripe
		n := min(stripe-inStripe, end-off)
		serverOff := (s/nServers)*stripe + inStripe
		list := runs[server]
		// Merge only when both the server-local range and the buffer
		// range continue the previous run (true for consecutive
		// stripes only when nServers == 1).
		if k := len(list); k > 0 &&
			list[k-1].ServerOff+list[k-1].Length == serverOff &&
			list[k-1].BufOff+list[k-1].Length == bufOff {
			list[k-1].Length += n
		} else {
			runs[server] = append(list, StripeRun{
				Server:    server,
				ServerOff: serverOff,
				BufOff:    bufOff,
				Length:    n,
			})
		}
		off += n
		bufOff += n
	}
	return runs
}

// ReadPlan is the striping plan of one list read.
type ReadPlan struct {
	// Lens is how many bytes the file can serve of each segment; the
	// rest of a segment's region in dst is past EOF.
	Lens []int64
	// Runs is what to fetch from each data server; BufOff indexes dst.
	Runs [][]StripeRun
}

// PlanRead plans reading segs of the file described by m, striped over
// nServers data servers, into dst, where the segments' regions lie
// back to back. It clamps every segment to the file size, zero-fills
// the EOF tails in dst, and decomposes what remains into per-server
// stripe runs. segs must be ascending and disjoint (chio.CheckSegs),
// so every server's runs come out ascending and disjoint in ServerOff.
func PlanRead(segs []chio.Seg, dst []byte, m Meta, nServers int) (ReadPlan, error) {
	total, err := chio.CheckSegs(segs)
	if err != nil {
		return ReadPlan{}, err
	}
	if total > int64(len(dst)) {
		return ReadPlan{}, fmt.Errorf("pvfs: read needs %d bytes, dst holds %d", total, len(dst))
	}
	plan := ReadPlan{Lens: make([]int64, len(segs)), Runs: make([][]StripeRun, nServers)}
	var base int64
	for i, s := range segs {
		n := min(max(m.Size-s.Off, 0), s.Len)
		plan.Lens[i] = n
		plan.Runs = appendRuns(plan.Runs, s.Off, n, base, m.StripeSize)
		clear(dst[base+n : base+s.Len])
		base += s.Len
	}
	return plan, nil
}

// SplitRuns cuts a plan's runs at buffer offset at: lo receives what
// lands in dst[:at], hi what lands in dst[at:]. A run that straddles
// the cut is divided. CEFT serves the two sides from different server
// groups.
func SplitRuns(runs [][]StripeRun, at int64) (lo, hi [][]StripeRun) {
	lo = make([][]StripeRun, len(runs))
	hi = make([][]StripeRun, len(runs))
	for server, list := range runs {
		for _, r := range list {
			switch {
			case r.BufOff+r.Length <= at:
				lo[server] = append(lo[server], r)
			case r.BufOff >= at:
				hi[server] = append(hi[server], r)
			default:
				head := at - r.BufOff
				lo[server] = append(lo[server], StripeRun{
					Server: r.Server, ServerOff: r.ServerOff, BufOff: r.BufOff, Length: head})
				hi[server] = append(hi[server], StripeRun{
					Server: r.Server, ServerOff: r.ServerOff + head, BufOff: at, Length: r.Length - head})
			}
		}
	}
	return lo, hi
}

// FanOut executes a plan: do runs once for every data server that has
// runs, all of them concurrently, and FanOut returns when all have
// finished. The caller's do picks the connection (and any fallback
// replica) for its server. The first result has one slot per server;
// the second is the lowest-numbered server's error, nil when all
// succeeded.
func FanOut(runs [][]StripeRun, do func(server int, list []StripeRun) error) ([]error, error) {
	errs := make([]error, len(runs))
	// The last server's share runs on the calling goroutine, which would
	// otherwise only wait: a request that touches one server — the
	// common small read — spawns nothing.
	last := -1
	for server, list := range runs {
		if len(list) > 0 {
			last = server
		}
	}
	if last < 0 {
		return errs, nil
	}
	var wg *sync.WaitGroup // allocated only when something is spawned
	for server, list := range runs[:last] {
		if len(list) == 0 {
			continue
		}
		if wg == nil {
			wg = new(sync.WaitGroup)
		}
		wg.Add(1)
		go runShare(wg, errs, do, server, list)
	}
	errs[last] = do(last, runs[last])
	if wg != nil {
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return errs, err
		}
	}
	return errs, nil
}

// runShare is one spawned share of a FanOut. It is a function rather
// than a closure so that FanOut's variables stay off the heap when
// nothing is spawned.
func runShare(wg *sync.WaitGroup, errs []error, do func(int, []StripeRun) error, server int, list []StripeRun) {
	defer wg.Done()
	errs[server] = do(server, list)
}
