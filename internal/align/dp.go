package align

// Full dynamic-programming local alignment with affine gaps (Gotoh):
// the final traceback of reported BLAST hits, and the ground truth the
// X-drop extensions are tested against.

const negInf = -(1 << 29)

// SmithWaterman computes the best local alignment of dense-coded
// sequences a and b under scheme s, including the traceback. It
// returns an alignment with Score 0 and empty Ops when no positive-
// scoring alignment exists.
func SmithWaterman(a, b []byte, s *Scheme) *Alignment {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return &Alignment{}
	}
	// H: best score ending at (i,j); E: best ending with gap in a
	// (insert); F: best ending with gap in b (delete).
	H := make([][]int32, n+1)
	E := make([][]int32, n+1)
	F := make([][]int32, n+1)
	for i := range H {
		H[i] = make([]int32, m+1)
		E[i] = make([]int32, m+1)
		F[i] = make([]int32, m+1)
		E[i][0] = negInf
		F[i][0] = negInf
	}
	for j := 0; j <= m; j++ {
		E[0][j] = negInf
		F[0][j] = negInf
	}
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	var best int32
	bi, bj := 0, 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			e := E[i][j-1] - ext
			if h := H[i][j-1] - open; h > e {
				e = h
			}
			E[i][j] = e
			f := F[i-1][j] - ext
			if h := H[i-1][j] - open; h > f {
				f = h
			}
			F[i][j] = f
			h := H[i-1][j-1] + int32(s.Score(a[i-1], b[j-1]))
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			H[i][j] = h
			if h > best {
				best, bi, bj = h, i, j
			}
		}
	}
	if best == 0 {
		return &Alignment{}
	}
	// Traceback from (bi,bj) until H hits 0.
	var ops []Op
	i, j := bi, bj
	state := byte('H')
	for H[i][j] != 0 || state != 'H' {
		switch state {
		case 'H':
			switch {
			case H[i][j] == E[i][j]:
				state = 'E'
			case H[i][j] == F[i][j]:
				state = 'F'
			default:
				ops = appendOp(ops, OpMatch, 1)
				i--
				j--
			}
		case 'E': // gap in a, consume b
			ops = appendOp(ops, OpInsert, 1)
			if E[i][j] == H[i][j-1]-open {
				state = 'H'
			}
			j--
		case 'F': // gap in b, consume a
			ops = appendOp(ops, OpDelete, 1)
			if F[i][j] == H[i-1][j]-open {
				state = 'H'
			}
			i--
		}
	}
	return &Alignment{
		Score:  int(best),
		AStart: i, AEnd: bi,
		BStart: j, BEnd: bj,
		Ops: reverseOps(ops),
	}
}

// SmithWatermanScore computes only the optimal local score using
// linear memory. It is the reference oracle for property tests.
func SmithWatermanScore(a, b []byte, s *Scheme) int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0
	}
	H := make([]int32, m+1)
	E := make([]int32, m+1)
	for j := range E {
		E[j] = negInf
	}
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	var best int32
	for i := 1; i <= n; i++ {
		var diag, f int32 = 0, negInf
		for j := 1; j <= m; j++ {
			e := E[j] - ext
			if h := H[j] - open; h > e {
				e = h
			}
			E[j] = e
			f -= ext
			if h := H[j-1] - open; h > f {
				f = h
			}
			h := diag + int32(s.Score(a[i-1], b[j-1]))
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			diag = H[j]
			H[j] = h
			if h > best {
				best = h
			}
		}
	}
	return int(best)
}
