package align

// Workspace holds reusable scratch buffers for the extension kernels,
// so a searcher that runs thousands of gapped extensions per subject
// allocates the DP rows and reversal buffers once instead of per
// seed. The zero Workspace is ready to use. Workspaces are not safe
// for concurrent use; each searcher owns one.
type Workspace struct {
	h, e       []int
	prev, cur  []int
	revA, revB []byte
}

// dpRows returns two zeroed-length int rows of capacity >= n.
func (ws *Workspace) dpRows(n int) ([]int, []int) {
	if cap(ws.h) < n {
		ws.h = make([]int, n)
		ws.e = make([]int, n)
	}
	return ws.h[:n], ws.e[:n]
}

// greedyRows returns the two diagonal-front rows of capacity >= n.
func (ws *Workspace) greedyRows(n int) ([]int, []int) {
	if cap(ws.prev) < n {
		ws.prev = make([]int, n)
		ws.cur = make([]int, n)
	}
	return ws.prev[:n], ws.cur[:n]
}

// reversed returns p reversed, into one of the workspace's two
// reversal buffers (which selects between them, so the two operands
// of a two-sided extension can be live at once).
func (ws *Workspace) reversed(p []byte, which int) []byte {
	buf := &ws.revA
	if which == 1 {
		buf = &ws.revB
	}
	if cap(*buf) < len(p) {
		*buf = make([]byte, len(p))
	}
	out := (*buf)[:len(p)]
	for i, c := range p {
		out[len(p)-1-i] = c
	}
	return out
}
