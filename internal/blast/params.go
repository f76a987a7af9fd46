package blast

import (
	"fmt"

	"pario/internal/align"
	"pario/internal/seq"
)

// Program selects one of the five classic BLAST comparison programs.
type Program int

const (
	// BlastN compares a nucleotide query against a nucleotide database.
	BlastN Program = iota
	// BlastP compares a protein query against a protein database.
	BlastP
	// BlastX compares a translated nucleotide query against a protein
	// database.
	BlastX
	// TBlastN compares a protein query against a translated nucleotide
	// database.
	TBlastN
	// TBlastX compares the six-frame translations of a nucleotide
	// query against the six-frame translations of a nucleotide
	// database.
	TBlastX
)

// String returns the conventional lower-case program name.
func (p Program) String() string {
	switch p {
	case BlastN:
		return "blastn"
	case BlastP:
		return "blastp"
	case BlastX:
		return "blastx"
	case TBlastN:
		return "tblastn"
	case TBlastX:
		return "tblastx"
	}
	return fmt.Sprintf("Program(%d)", int(p))
}

// ParseProgram maps a program name to its Program value.
func ParseProgram(name string) (Program, error) {
	switch name {
	case "blastn":
		return BlastN, nil
	case "blastp":
		return BlastP, nil
	case "blastx":
		return BlastX, nil
	case "tblastn":
		return TBlastN, nil
	case "tblastx":
		return TBlastX, nil
	}
	return 0, fmt.Errorf("blast: unknown program %q", name)
}

// QueryKind returns the sequence kind the program expects as query.
func (p Program) QueryKind() seq.Kind {
	switch p {
	case BlastP, TBlastN:
		return seq.Protein
	}
	return seq.Nucleotide
}

// DBKind returns the sequence kind the program expects in the
// database.
func (p Program) DBKind() seq.Kind {
	switch p {
	case BlastP, BlastX:
		return seq.Protein
	}
	return seq.Nucleotide
}

// comparisonIsProtein reports whether the inner comparison (after any
// translation) runs over the protein alphabet.
func (p Program) comparisonIsProtein() bool { return p != BlastN }

// Params collects every tunable of a BLAST search. Zero values are
// replaced by program defaults in Defaults.
type Params struct {
	Program Program
	Scheme  *align.Scheme

	// WordSize is the seed word length (11 for blastn, 3 for protein
	// comparisons).
	WordSize int
	// Threshold is the protein neighborhood word score threshold T:
	// a database word seeds a hit when it scores >= T against a query
	// word. Ignored by blastn, which seeds on exact words.
	Threshold int
	// TwoHitWindow is the diagonal window A within which two
	// non-overlapping seed hits are required before ungapped
	// extension (protein searches; 0 disables the two-hit rule).
	TwoHitWindow int

	// XDropUngapped, XDropGapped are raw-score drop-offs.
	XDropUngapped int
	XDropGapped   int

	// GapTriggerBits: ungapped HSPs whose bit score reaches this
	// value are handed to the gapped extension.
	GapTriggerBits float64

	// EValue is the report cutoff.
	EValue float64
	// MaxTargetSeqs caps the number of reported subject sequences
	// (0 = unlimited).
	MaxTargetSeqs int
	// BothStrands makes blastn search the reverse complement of the
	// query too.
	BothStrands bool

	// Threads is the number of search shards the subject pipeline
	// runs (<= 1 means the classic sequential loop). Results are
	// bit-identical at any thread count: subjects are independent and
	// the pipeline merges them back in stream order.
	Threads int

	// Filter enables low-complexity masking of the query before
	// seeding (DUST for nucleotide comparisons, SEG-style entropy
	// masking for protein comparisons) — NCBI blastall's -F option.
	Filter bool
	// Greedy enables megablast mode for blastn: long exact seed words
	// (default 28) and greedy gapped extension (Zhang et al. 2000)
	// instead of the X-drop DP — much faster on highly similar
	// sequences, less sensitive to diverged ones.
	Greedy bool
	// Dust/Seg tune the filters; zero values take the defaults.
	Dust DustParams
	Seg  SegParams
}

// Defaults returns p with unset fields replaced by the program's
// classic defaults.
func (p Params) Defaults() Params {
	prog := p.Program
	if p.Scheme == nil {
		if prog.comparisonIsProtein() {
			p.Scheme = align.DefaultProtein()
		} else {
			p.Scheme = align.DefaultNucleotide()
		}
	}
	if p.WordSize == 0 {
		switch {
		case prog.comparisonIsProtein():
			p.WordSize = 3
		case p.Greedy:
			p.WordSize = 28
		default:
			p.WordSize = 11
		}
	}
	if p.Threshold == 0 && prog.comparisonIsProtein() {
		p.Threshold = 11
	}
	if p.TwoHitWindow == 0 && prog.comparisonIsProtein() {
		p.TwoHitWindow = 40
	}
	if p.XDropUngapped == 0 {
		if prog.comparisonIsProtein() {
			p.XDropUngapped = 16 // ~7 bits at lambda 0.318
		} else {
			p.XDropUngapped = 20
		}
	}
	if p.XDropGapped == 0 {
		if prog.comparisonIsProtein() {
			p.XDropGapped = 38 // ~15 bits
		} else {
			p.XDropGapped = 30
		}
	}
	if p.GapTriggerBits == 0 {
		if prog.comparisonIsProtein() {
			p.GapTriggerBits = 22
		} else {
			p.GapTriggerBits = 25
		}
	}
	if p.EValue == 0 {
		p.EValue = 10
	}
	if prog == BlastN {
		p.BothStrands = true
	}
	if p.Dust.Window == 0 {
		p.Dust = DefaultDust()
	}
	if p.Seg.Window == 0 {
		p.Seg = DefaultSeg()
	}
	return p
}

// Validate rejects parameter combinations the engine cannot run.
func (p Params) Validate() error {
	if p.Scheme == nil {
		return fmt.Errorf("blast: nil scoring scheme")
	}
	if err := p.checkScheme(); err != nil {
		return err
	}
	if p.WordSize < 2 {
		return fmt.Errorf("blast: word size %d too small", p.WordSize)
	}
	if p.Program == BlastN && !p.Greedy && p.WordSize > 16 {
		return fmt.Errorf("blast: blastn word size %d exceeds 16", p.WordSize)
	}
	if p.Greedy && p.Program != BlastN {
		return fmt.Errorf("blast: greedy (megablast) mode is blastn-only")
	}
	if p.Greedy && p.WordSize > nucMaxWord {
		return fmt.Errorf("blast: megablast word size %d exceeds %d", p.WordSize, nucMaxWord)
	}
	if p.Program.comparisonIsProtein() && p.WordSize > 5 {
		return fmt.Errorf("blast: protein word size %d exceeds 5", p.WordSize)
	}
	if p.EValue <= 0 {
		return fmt.Errorf("blast: e-value cutoff must be positive")
	}
	return nil
}

// checkScheme rejects a scoring table the program cannot index or
// score with: blastn seeds and extends 2-bit codes under one match and
// one mismatch score, protein comparisons look up every residue pair.
func (p Params) checkScheme() error {
	s := p.Scheme
	if p.Program == BlastN {
		if _, _, ok := align.UniformNucScheme(s); !ok {
			return fmt.Errorf("blast: blastn needs a uniform 4x4 match/mismatch scheme, got %s scheme %q", s.Kind, s.Name)
		}
		return nil
	}
	ok := len(s.Table) >= seq.NumAA
	for _, row := range s.Table {
		ok = ok && len(row) >= seq.NumAA
	}
	if !ok {
		return fmt.Errorf("blast: %s needs a %d-residue protein scoring table, got %s scheme %q", p.Program, seq.NumAA, s.Kind, s.Name)
	}
	return nil
}

// threadCount clamps Threads to at least one shard.
func (p Params) threadCount() int {
	if p.Threads < 1 {
		return 1
	}
	return p.Threads
}
