package align

import (
	"fmt"
	"strings"
)

// OpKind is the type of an alignment edit operation.
type OpKind byte

const (
	// OpMatch consumes one letter of both sequences (match or
	// substitution).
	OpMatch OpKind = 'M'
	// OpInsert consumes one letter of B only (gap in A).
	OpInsert OpKind = 'I'
	// OpDelete consumes one letter of A only (gap in B).
	OpDelete OpKind = 'D'
)

// Op is a run-length-encoded edit operation.
type Op struct {
	Kind OpKind
	Len  int
}

// Alignment is the result of a pairwise alignment between sequence A
// (typically the query) and sequence B (typically a subject). Starts
// and ends are 0-based half-open offsets into the aligned letters.
type Alignment struct {
	Score  int
	AStart int
	AEnd   int
	BStart int
	BEnd   int
	Ops    []Op
}

// CIGAR renders the edit script in CIGAR notation ("12M1D7M").
func (al *Alignment) CIGAR() string {
	var sb strings.Builder
	for _, op := range al.Ops {
		fmt.Fprintf(&sb, "%d%c", op.Len, op.Kind)
	}
	return sb.String()
}

// Identity counts matching columns given the aligned letter data and
// returns (identities, alignment length).
func (al *Alignment) Identity(a, b []byte) (matches, columns int) {
	ai, bi := al.AStart, al.BStart
	for _, op := range al.Ops {
		switch op.Kind {
		case OpMatch:
			for k := 0; k < op.Len; k++ {
				if a[ai+k] == b[bi+k] {
					matches++
				}
			}
			ai += op.Len
			bi += op.Len
		case OpInsert:
			bi += op.Len
		case OpDelete:
			ai += op.Len
		}
		columns += op.Len
	}
	return matches, columns
}

// Gaps returns the total number of gap columns.
func (al *Alignment) Gaps() int {
	n := 0
	for _, op := range al.Ops {
		if op.Kind != OpMatch {
			n += op.Len
		}
	}
	return n
}

// appendOp adds an operation, merging with the previous one when the
// kinds match.
func appendOp(ops []Op, kind OpKind, n int) []Op {
	if n <= 0 {
		return ops
	}
	if len(ops) > 0 && ops[len(ops)-1].Kind == kind {
		ops[len(ops)-1].Len += n
		return ops
	}
	return append(ops, Op{Kind: kind, Len: n})
}

// reverseOps reverses ops in place (tracebacks produce them backwards)
// and merges adjacent runs of the same kind.
func reverseOps(ops []Op) []Op {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	merged := ops[:0]
	for _, op := range ops {
		if n := len(merged); n > 0 && merged[n-1].Kind == op.Kind {
			merged[n-1].Len += op.Len
			continue
		}
		merged = append(merged, op)
	}
	return merged
}
