package align

// Workspace holds reusable scratch buffers for the extension kernels,
// so a searcher that runs thousands of gapped extensions per subject
// allocates the DP rows once instead of per seed. The kernels touch
// the rows only inside their band and never read a cell they have not
// written in the same call, so the rows need no clearing between
// extensions. The rows are as long as the band can reach from the
// query side and the X-drop, not as the rest of the subject. The zero
// Workspace is ready to use. Workspaces are not safe for concurrent
// use; each searcher owns one.
type Workspace struct {
	h, e      []int
	prev, cur []int
}

// dpRows returns two int rows of length n, holding whatever the last
// extension left in them.
func (ws *Workspace) dpRows(n int) ([]int, []int) {
	if cap(ws.h) < n {
		ws.h = make([]int, n)
		ws.e = make([]int, n)
	}
	return ws.h[:n], ws.e[:n]
}

// greedyRows returns the two diagonal-front rows of length n, holding
// whatever the last extension left in them.
func (ws *Workspace) greedyRows(n int) ([]int, []int) {
	if cap(ws.prev) < n {
		ws.prev = make([]int, n)
		ws.cur = make([]int, n)
	}
	return ws.prev[:n], ws.cur[:n]
}
