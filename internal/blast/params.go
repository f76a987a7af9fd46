package blast

import (
	"fmt"

	"pario/internal/align"
)

// Program names the BLAST comparison a search runs. The engine runs
// one: blastn, a nucleotide query against a nucleotide database, the
// program the paper measures. The type stays so that results and wire
// messages name what produced them.
type Program int

// BlastN compares a nucleotide query against a nucleotide database.
const BlastN Program = 0

// String returns the conventional lower-case program name.
func (p Program) String() string {
	if p == BlastN {
		return "blastn"
	}
	return fmt.Sprintf("Program(%d)", int(p))
}

// ParseProgram maps a program name to its Program value.
func ParseProgram(name string) (Program, error) {
	if name != "blastn" {
		return 0, fmt.Errorf("blast: unknown program %q (only blastn is supported)", name)
	}
	return BlastN, nil
}

// Params collects every tunable of a BLAST search. Zero values are
// replaced by defaults in Defaults.
type Params struct {
	Program Program
	Scheme  *align.Scheme

	// WordSize is the seed word length (11 for blastn, 28 for
	// megablast).
	WordSize int

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

	// Filter enables DUST low-complexity masking of the query before
	// seeding — NCBI blastall's -F option.
	Filter bool
	// Greedy enables megablast mode: long exact seed words (default
	// 28) and greedy gapped extension (Zhang et al. 2000) instead of
	// the X-drop DP — much faster on highly similar sequences, less
	// sensitive to diverged ones.
	Greedy bool
	// Dust tunes the filter; a zero value takes the defaults.
	Dust DustParams
}

// Defaults returns p with unset fields replaced by blastn's classic
// defaults.
func (p Params) Defaults() Params {
	if p.Scheme == nil {
		p.Scheme = align.DefaultNucleotide()
	}
	if p.WordSize == 0 {
		p.WordSize = 11
		if p.Greedy {
			p.WordSize = 28
		}
	}
	if p.XDropUngapped == 0 {
		p.XDropUngapped = 20
	}
	if p.XDropGapped == 0 {
		p.XDropGapped = 30
	}
	if p.GapTriggerBits == 0 {
		p.GapTriggerBits = 25
	}
	if p.EValue == 0 {
		p.EValue = 10
	}
	p.BothStrands = true
	if p.Dust.Window == 0 {
		p.Dust = DefaultDust()
	}
	return p
}

// Validate rejects parameter combinations the engine cannot run: any
// program but blastn, and any scheme it cannot seed and extend 2-bit
// codes under, which means anything but one match and one mismatch
// score.
func (p Params) Validate() error {
	if p.Program != BlastN {
		return fmt.Errorf("blast: unsupported program %s (only blastn is supported)", p.Program)
	}
	if p.Scheme == nil {
		return fmt.Errorf("blast: nil scoring scheme")
	}
	if _, _, ok := align.UniformNucScheme(p.Scheme); !ok {
		return fmt.Errorf("blast: blastn needs a uniform 4x4 match/mismatch scheme, got scheme %q", p.Scheme.Name)
	}
	if p.WordSize < 2 {
		return fmt.Errorf("blast: word size %d too small", p.WordSize)
	}
	if !p.Greedy && p.WordSize > 16 {
		return fmt.Errorf("blast: blastn word size %d exceeds 16", p.WordSize)
	}
	if p.Greedy && p.WordSize > nucMaxWord {
		return fmt.Errorf("blast: megablast word size %d exceeds %d", p.WordSize, nucMaxWord)
	}
	if p.EValue <= 0 {
		return fmt.Errorf("blast: e-value cutoff must be positive")
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
