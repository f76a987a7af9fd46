// Package stress ports the paper's Figure 8 disk-stressing program:
// an endless loop of synchronous 1 MB appends to a file that is
// truncated back to zero whenever it exceeds 2 GB. Running it against
// a node's disk emulates the I/O-intensive co-resident applications
// whose interference the hot-spot experiment (§4.5) studies.
package stress

import (
	"context"
	"fmt"
	"time"

	"pario/internal/chio"
)

// Figure 8's constants: the append size and the size past which the
// file is truncated.
const (
	DefaultBlockSize   = 1 << 20
	DefaultMaxFileSize = 2 << 30
)

// Config tunes the stressor; zero values take Figure 8's constants.
type Config struct {
	// File is the stress file name ("F" in Figure 8).
	File string
	// BlockSize is the append size (1 MB).
	BlockSize int64
	// MaxFileSize triggers truncation (2 GB).
	MaxFileSize int64
}

func (c Config) withDefaults() Config {
	if c.File == "" {
		c.File = "stress.dat"
	}
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.MaxFileSize == 0 {
		c.MaxFileSize = DefaultMaxFileSize
	}
	return c
}

// Stats reports stressor progress.
type Stats struct {
	BytesWritten int64
	Writes       int64
	Truncations  int64
	Elapsed      time.Duration
}

// Throughput returns the achieved write bandwidth in bytes/second.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.BytesWritten) / s.Elapsed.Seconds()
}

// Run executes the Figure 8 loop against fs until ctx is cancelled:
//
//  1. M = allocate(1 MBytes);
//  2. Create a file named F;
//  3. While(1)
//  4. If(size(F) > 2 GB)      Truncate F to zero byte;
//  5. Else                    Synchronously append M to F;
//
// Each append is a synchronous write through the chio backend, so
// against a LocalFS it always reaches the device path the way the
// paper's O_SYNC writes did.
func Run(ctx context.Context, fs chio.FileSystem, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	var st Stats
	start := time.Now()
	defer func() { st.Elapsed = time.Since(start) }()

	f, err := fs.Create(cfg.File)
	if err != nil {
		return st, fmt.Errorf("stress: creating %s: %w", cfg.File, err)
	}
	block := make([]byte, cfg.BlockSize)
	var size int64
	for {
		select {
		case <-ctx.Done():
			err := f.Close()
			st.Elapsed = time.Since(start)
			return st, err
		default:
		}
		if size > cfg.MaxFileSize {
			// Truncate F to zero bytes by re-creating it.
			if err := f.Close(); err != nil {
				return st, err
			}
			f, err = fs.Create(cfg.File)
			if err != nil {
				return st, fmt.Errorf("stress: truncating %s: %w", cfg.File, err)
			}
			size = 0
			st.Truncations++
			continue
		}
		n, err := f.WriteAt(block, size)
		if err != nil {
			f.Close()
			return st, fmt.Errorf("stress: writing: %w", err)
		}
		size += int64(n)
		st.BytesWritten += int64(n)
		st.Writes++
	}
}
