package blastdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"pario/internal/chio"
	"pario/internal/seq"
)

// FragmentInfo describes one fragment of a segmented database.
type FragmentInfo struct {
	Path    string
	Seqs    int64
	Letters int64
}

// Alias is the database catalog: the set of fragments plus the
// database-wide totals needed for search statistics (the equivalent of
// formatdb's .nal alias plus header counts).
type Alias struct {
	Title     string
	Kind      seq.Kind
	Seqs      int64
	Letters   int64
	Fragments []FragmentInfo
}

// AliasPath returns the conventional alias file name for a database.
func AliasPath(name string) string { return name + ".pal" }

// FragmentPath returns the conventional fragment file name.
func FragmentPath(name string, i int) string { return fmt.Sprintf("%s.%03d.pfr", name, i) }

// WriteTo renders the alias in its text format.
func (a *Alias) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# pario segmented BLAST database alias\n")
	fmt.Fprintf(&buf, "TITLE %s\n", a.Title)
	fmt.Fprintf(&buf, "KIND %s\n", a.Kind)
	fmt.Fprintf(&buf, "SEQS %d\n", a.Seqs)
	fmt.Fprintf(&buf, "LETTERS %d\n", a.Letters)
	for _, fr := range a.Fragments {
		fmt.Fprintf(&buf, "FRAGMENT %s %d %d\n", fr.Path, fr.Seqs, fr.Letters)
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Save writes the alias file to fs at AliasPath(name).
func (a *Alias) Save(fs chio.FileSystem, name string) error {
	f, err := fs.Create(AliasPath(name))
	if err != nil {
		return err
	}
	if _, err := a.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadAlias loads a database alias from fs.
func ReadAlias(fs chio.FileSystem, name string) (*Alias, error) {
	data, err := chio.ReadFull(fs, AliasPath(name))
	if err != nil {
		return nil, err
	}
	return ParseAlias(bytes.NewReader(data))
}

// ParseAlias parses the alias text format.
func ParseAlias(r io.Reader) (*Alias, error) {
	a := &Alias{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "TITLE":
			if len(fields) >= 2 {
				a.Title = fields[1]
			}
		case "KIND":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blastdb: KIND line missing value")
			}
			if fields[1] != seq.Nucleotide.String() {
				return nil, fmt.Errorf("blastdb: database KIND %q is not supported, only %s", fields[1], seq.Nucleotide)
			}
			a.Kind = seq.Nucleotide
		case "SEQS":
			v, err := atoi64(fields, 1)
			if err != nil {
				return nil, err
			}
			a.Seqs = v
		case "LETTERS":
			v, err := atoi64(fields, 1)
			if err != nil {
				return nil, err
			}
			a.Letters = v
		case "FRAGMENT":
			if len(fields) != 4 {
				return nil, fmt.Errorf("blastdb: malformed FRAGMENT line %q", line)
			}
			seqs, err := atoi64(fields, 2)
			if err != nil {
				return nil, err
			}
			letters, err := atoi64(fields, 3)
			if err != nil {
				return nil, err
			}
			a.Fragments = append(a.Fragments, FragmentInfo{Path: fields[1], Seqs: seqs, Letters: letters})
		default:
			return nil, fmt.Errorf("blastdb: unknown alias directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(a.Fragments) == 0 {
		return nil, fmt.Errorf("blastdb: alias lists no fragments")
	}
	return a, nil
}

func atoi64(fields []string, i int) (int64, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("blastdb: missing numeric field")
	}
	v, err := strconv.ParseInt(fields[i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("blastdb: bad number %q: %w", fields[i], err)
	}
	return v, nil
}

// batchSize is how many sequences Format's reader hands the append
// loop at once: one channel operation per batch, not per sequence.
const batchSize = 32

// parseAhead is how many full batches Format's reader may have waiting
// beyond the one being appended, so it parses at most
// (parseAhead+1)*batchSize sequences ahead of the appends: enough to
// keep parsing while a fragment's full write buffer goes out to
// storage, few enough that records of nt's size (kilobases) hold
// little memory.
const parseAhead = 2

// closeWidth is how many fragments Format creates or closes at once:
// every fragment of the paper's and the benchmark's databases (8), and
// a bound, so thousands of fragments on a local disk do not ask for a
// thread per blocking call.
const closeWidth = 16

// Format splits the sequences next returns, until io.EOF, into
// fragments fragments named after name, writing them plus the alias
// file onto fs. Sequences are assigned greedily to the least-loaded
// fragment (by letters), the same balancing mpiBLAST's database
// segmentation performs. The fragments are created concurrently and
// closed concurrently (closeWidth at a time), and the alias is written
// once every one has closed. On an error no alias is written and every
// fragment created but not yet closed is closed unfinished, so
// OpenFragment rejects it; an error from next is returned as it is,
// and of several failed creates or closes the first fragment's error.
//
// next runs on a goroutine of Format's own, which hands the sequences
// to the appends in batches of batchSize, at most parseAhead batches
// ahead, and is never called after Format returns.
// Format owns every sequence next returns: next must not reuse one, or
// its Data, for a later sequence.
func Format(fs chio.FileSystem, name string, kind seq.Kind, fragments int, next func() (*seq.Sequence, error)) (*Alias, error) {
	if fragments < 1 {
		return nil, fmt.Errorf("blastdb: fragment count %d < 1", fragments)
	}
	// eachFragment runs fn for every fragment, closeWidth at a time, so
	// that one fragment's storage round trips overlap the others', and
	// returns the first fragment's error.
	eachFragment := func(fn func(i int) error) error {
		errs := make([]error, fragments)
		var running sync.WaitGroup
		slots := make(chan struct{}, closeWidth)
		for i := range errs {
			slots <- struct{}{}
			running.Add(1)
			go func() {
				defer running.Done()
				errs[i] = fn(i)
				<-slots
			}()
		}
		running.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	writers := make([]*FragmentWriter, fragments)
	defer func() {
		for _, w := range writers {
			if w != nil {
				w.abandon() // a no-op once the writer is closed
			}
		}
	}()
	if err := eachFragment(func(i int) error {
		f, err := fs.Create(FragmentPath(name, i))
		if err != nil {
			return err
		}
		w, err := NewFragmentWriter(f, kind)
		if err != nil {
			f.Close()
			return err
		}
		writers[i] = w
		return nil
	}); err != nil {
		return nil, err
	}

	batches := make(chan []*seq.Sequence, parseAhead)
	stop := make(chan struct{})
	var readErr error // set before batches closes
	var reading sync.WaitGroup
	reading.Add(1)
	go func() {
		defer reading.Done()
		defer close(batches)
		for err := error(nil); err == nil; {
			select {
			case <-stop:
				return
			default:
			}
			// A batch cut short by an error still goes out, so the
			// sequences before the error are appended first.
			batch := make([]*seq.Sequence, 0, batchSize)
			for len(batch) < batchSize && err == nil {
				var s *seq.Sequence
				if s, err = next(); err == nil {
					batch = append(batch, s)
				}
			}
			if err != nil && err != io.EOF {
				readErr = err
			}
			select {
			case batches <- batch:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		reading.Wait()
	}()

	a := &Alias{Title: name, Kind: kind}
	for batch := range batches {
		for _, s := range batch {
			s.Kind = kind
			// Pick the least-loaded fragment.
			best := 0
			for i := 1; i < fragments; i++ {
				if writers[i].Letters() < writers[best].Letters() {
					best = i
				}
			}
			if err := writers[best].Append(s); err != nil {
				return nil, err
			}
			a.Seqs++
			a.Letters += int64(s.Len())
		}
	}
	if readErr != nil {
		return nil, readErr
	}
	// The fragments close together: each writes its own tail and
	// header.
	for i, w := range writers {
		a.Fragments = append(a.Fragments, FragmentInfo{
			Path:    FragmentPath(name, i),
			Seqs:    int64(w.NumSequences()),
			Letters: w.Letters(),
		})
	}
	if err := eachFragment(func(i int) error { return writers[i].Close() }); err != nil {
		return nil, err
	}
	if err := a.Save(fs, name); err != nil {
		return nil, err
	}
	return a, nil
}

// OpenAll opens every fragment of the database through fs. The caller
// owns the returned fragments and must Close them.
func OpenAll(fs chio.FileSystem, a *Alias) ([]*Fragment, error) {
	frags := make([]*Fragment, 0, len(a.Fragments))
	for _, fi := range a.Fragments {
		fr, err := OpenFragment(fs, fi.Path)
		if err != nil {
			for _, open := range frags {
				open.Close()
			}
			return nil, err
		}
		frags = append(frags, fr)
	}
	return frags, nil
}
