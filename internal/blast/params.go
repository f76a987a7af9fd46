package blast

import (
	"fmt"
	"math"

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

// The engine's fixed parameters: NCBI blastn's defaults, which every
// search in the paper runs with. Scores are +1/-3 with gaps costing
// 5 to open and 2 per letter; the ungapped and gapped extensions stop
// 20 and 30 raw points below their best; an ungapped HSP of 25 bits
// triggers the gapped extension. Seed words are 11 bases long, or 28
// in megablast mode. Both query strands are always searched, and -F
// masks with DefaultDust.
const (
	blastnWord     = 11
	megablastWord  = 28
	nucMatch       = 1
	nucMismatch    = -3
	gapOpen        = 5
	gapExtend      = 2
	xDropUngapped  = 20
	xDropGapped    = 30
	gapTriggerBits = 25
)

// nucScheme is the engine's scoring scheme, built from the constants
// above; read-only after package initialization.
var nucScheme = align.NucleotideScheme(nucMatch, nucMismatch, gapOpen, gapExtend)

// nucKarlin is the scoring system's Karlin-Altschul parameters under
// uniform base frequencies: NCBI's published row for +1/-3 with 5/2
// gaps. Every e-value, bit score and length adjustment reads it.
var nucKarlin = KarlinParams{Lambda: 1.374, K: 0.711, H: 1.31}

// gapTriggerRaw is the raw score an ungapped HSP needs to earn a
// gapped extension: gapTriggerBits expressed through nucKarlin (13).
var gapTriggerRaw = int(math.Ceil((gapTriggerBits*math.Ln2 + math.Log(nucKarlin.K)) / nucKarlin.Lambda))

// Params collects the settings a search takes from its caller. Zero
// values are replaced by defaults in Defaults.
type Params struct {
	Program Program

	// EValue is the report cutoff.
	EValue float64
	// MaxTargetSeqs caps the number of reported subject sequences
	// (0 = unlimited).
	MaxTargetSeqs int

	// Threads is ignored: every search runs one sequential loop, and
	// a multi-core host gets its cores from more worker ranks. The
	// field stays only because the frozen benchmark module sets it.
	Threads int

	// Filter enables DUST low-complexity masking of the query before
	// seeding — NCBI blastall's -F option.
	Filter bool
	// Greedy enables megablast mode: long exact seed words (28
	// bases) and greedy gapped extension (Zhang et al. 2000) instead of
	// the X-drop DP — much faster on highly similar sequences, less
	// sensitive to diverged ones.
	Greedy bool
}

// Defaults returns p with unset fields replaced by blastn's classic
// defaults.
func (p Params) Defaults() Params {
	if p.EValue == 0 {
		p.EValue = 10
	}
	return p
}

// Validate rejects parameter combinations the engine cannot run: any
// program but blastn and a non-positive e-value cutoff.
func (p Params) Validate() error {
	if p.Program != BlastN {
		return fmt.Errorf("blast: unsupported program %s (only blastn is supported)", p.Program)
	}
	if p.EValue <= 0 {
		return fmt.Errorf("blast: e-value cutoff must be positive")
	}
	return nil
}

// wordSize is the seed word length the mode implies: 11, or 28 for
// megablast.
func (p Params) wordSize() int {
	if p.Greedy {
		return megablastWord
	}
	return blastnWord
}
