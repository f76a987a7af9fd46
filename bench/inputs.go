package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/seq"
	"pario/internal/workload"
)

const (
	dbName     = "nt32"
	fragments  = 8
	queryLen   = 568 // the paper's query length
	copyBuffer = 1 << 20
)

// subSeed derives the seed of one input stream from the run's seed
// (SplitMix64 finalizer), so streams are independent and every one of
// them changes with -seed.
func subSeed(seed uint64, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Input streams.
const (
	streamDB = iota
	streamIngest
	streamSchedule
	streamQueries = 1000 // + query index
)

// batchFS makes the database generator's many small appends reach the
// file system below as 1 MiB writes, the size the copy into a
// deployment uses too.
type batchFS struct{ chio.FileSystem }

func (b batchFS) Create(name string) (chio.File, error) {
	f, err := b.FileSystem.Create(name)
	if err != nil {
		return nil, err
	}
	return &batchFile{File: f}, nil
}

type batchFile struct {
	chio.File
	pending []byte
}

func (f *batchFile) Write(p []byte) (int, error) {
	f.pending = append(f.pending, p...)
	if len(f.pending) >= copyBuffer {
		if err := f.flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (f *batchFile) flush() error {
	_, err := f.File.Write(f.pending)
	f.pending = f.pending[:0]
	return err
}

// WriteAt lands after everything written so far, as it would without
// the batching (the fragment writer patches its header this way).
func (f *batchFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.flush(); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *batchFile) Close() error {
	if err := f.flush(); err != nil {
		return err
	}
	return f.File.Close()
}

// database is the shared input: the synthetic nt-like database in
// memory, which is both the source copied into every deployment and
// what the reference searches read.
type database struct {
	mem   *chio.MemFS
	alias *blastdb.Alias
	bytes int64 // all files
}

func buildDatabase(seed uint64, letters int64) (*database, error) {
	mem := chio.NewMemFS()
	alias, err := workload.Build(batchFS{mem}, workload.NtLike(dbName, letters, subSeed(seed, streamDB)), fragments)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", dbName, err)
	}
	db := &database{mem: mem, alias: alias}
	files, err := mem.List("")
	if err != nil {
		return nil, err
	}
	for _, fi := range files {
		db.bytes += fi.Size
	}
	return db, nil
}

// copyTo loads the database into a deployment, file by file.
func (db *database) copyTo(dst chio.FileSystem) error {
	files, err := db.mem.List("")
	if err != nil {
		return err
	}
	for _, fi := range files {
		if _, err := chio.Copy(dst, fi.Name, db.mem, fi.Name, copyBuffer); err != nil {
			return fmt.Errorf("copy %s to %s: %w", fi.Name, dst.BackendName(), err)
		}
	}
	return nil
}

// queries draws n distinct queries, numbered from first in the seed's
// query stream.
func (db *database) queries(seed uint64, first, n int) ([]*seq.Sequence, error) {
	out := make([]*seq.Sequence, 0, n)
	seen := map[string]bool{}
	for i := first; len(out) < n; i++ {
		q, err := core.ExtractQuery(db.mem, dbName, queryLen, subSeed(seed, streamQueries+uint64(i)))
		if err != nil {
			return nil, err
		}
		if text := string(q.Data); !seen[text] {
			seen[text] = true
			out = append(out, q)
		}
	}
	return out, nil
}

// searchParams are the blastn parameters every search of the
// benchmark uses, in the program under test and in the reference.
func searchParams(threads int) blast.Params {
	return blast.Params{Program: blast.BlastN, EValue: 10, Threads: threads}
}

// reference is the oracle: the same query searched by one process over
// the in-memory copy, on the letter-decoding path.
func (db *database) reference(q *seq.Sequence) (string, error) {
	res, err := core.SerialSearch(db.mem, dbName, q, searchParams(2))
	if err != nil {
		return "", fmt.Errorf("reference search: %w", err)
	}
	return digest(res), nil
}

// digest identifies a search result by what a user would read off
// it: per hit the subject and, per alignment, score and coordinates.
func digest(res *blast.Result) string {
	h := sha256.New()
	num := func(vs ...int) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, int64(v)) // a hash never fails to write
		}
	}
	num(len(res.Hits))
	for _, hit := range res.Hits {
		h.Write([]byte(hit.SubjectID))
		num(hit.SubjectLen, len(hit.HSPs))
		for _, p := range hit.HSPs {
			num(p.Score, p.QueryFrom, p.QueryTo, p.SubjectFrom, p.SubjectTo,
				int(p.QueryFrame), int(p.SubjectFrame), p.Identities, p.AlignLen, p.Gaps)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fastaText renders a query the way a blastd client posts it.
func fastaText(q *seq.Sequence) string {
	var b bytes.Buffer
	_ = seq.WriteFasta(&b, 70, q) // a buffer never fails to write
	return b.String()
}
