package blastdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"pario/internal/chio"
	"pario/internal/seq"
	"pario/internal/util"
)

func randomSeqs(rng *util.RNG, n, minLen, maxLen int) []*seq.Sequence {
	out := make([]*seq.Sequence, n)
	for i := range out {
		ln := minLen + rng.Intn(maxLen-minLen+1)
		data := make([]byte, ln)
		for j := range data {
			data[j] = seq.NucLetter[rng.Intn(4)]
		}
		out[i] = &seq.Sequence{
			ID:   "seq" + string(rune('A'+i%26)) + string(rune('0'+i/26)),
			Desc: "synthetic",
			Kind: seq.Nucleotide,
			Data: data,
		}
	}
	return out
}

func fastaOf(t *testing.T, seqs []*seq.Sequence) *seq.FastaReader {
	t.Helper()
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, 70, seqs...); err != nil {
		t.Fatal(err)
	}
	return seq.NewFastaReader(&buf, seq.Nucleotide)
}

func TestFragmentRoundTrip(t *testing.T) {
	fs := chio.NewMemFS()
	rng := util.NewRNG(21)
	seqs := randomSeqs(rng, 10, 50, 500)

	f, err := fs.Create("frag")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewFragmentWriter(f, seq.Nucleotide)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	fr, err := OpenFragment(fs, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if fr.NumSequences() != len(seqs) {
		t.Fatalf("count = %d, want %d", fr.NumSequences(), len(seqs))
	}
	var wantLetters int64
	for i, want := range seqs {
		got, err := fr.Sequence(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.Desc != want.Desc {
			t.Errorf("seq %d defline: %q %q", i, got.ID, got.Desc)
		}
		if !bytes.Equal(got.Letters(), want.Data) {
			t.Errorf("seq %d data mismatch", i)
		}
		wantLetters += int64(want.Len())
	}
	if fr.Letters() != wantLetters {
		t.Errorf("letters = %d, want %d", fr.Letters(), wantLetters)
	}
}

func TestFragmentWriterRejectsWrongKind(t *testing.T) {
	fs := chio.NewMemFS()
	f, _ := fs.Create("frag")
	w, err := NewFragmentWriter(f, seq.Nucleotide)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	other := &seq.Sequence{ID: "p", Kind: seq.Kind(1), Data: []byte("ACGT")}
	if err := w.Append(other); err == nil || !strings.Contains(err.Error(), "Kind(1)") {
		t.Errorf("kind-1 sequence appended to a nucleotide fragment: %v, want an error naming the kind", err)
	}
	g, _ := fs.Create("frag1")
	if _, err := NewFragmentWriter(g, seq.Kind(1)); err == nil || !strings.Contains(err.Error(), "Kind(1)") {
		t.Errorf("kind-1 fragment writer: %v, want an error naming the kind", err)
	}
}

func TestOpenFragmentBadMagic(t *testing.T) {
	fs := chio.NewMemFS()
	if err := chio.WriteFull(fs, "junk", bytes.Repeat([]byte("x"), 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFragment(fs, "junk"); err == nil {
		t.Error("junk file opened as fragment")
	}
	if _, err := OpenFragment(fs, "missing"); err == nil {
		t.Error("missing file opened")
	}
}

// TestAbandonedFragmentIsRejected pins the crash semantics: a fragment
// is valid only once its writer's Close returns nil. A writer abandoned
// before its first flush leaves an empty file, and one abandoned after
// it leaves data under a zeroed header; OpenFragment rejects both as
// bad magic. The header stays zeroed when the writer's pooled buffer
// last held a valid header.
func TestAbandonedFragmentIsRejected(t *testing.T) {
	fs := chio.NewMemFS()
	for _, tc := range []struct {
		name  string
		seqs  int
		size  func(int64) bool
		dirty bool
	}{
		{"before the first flush", 3, func(n int64) bool { return n == 0 }, false},
		{"after the first flush", 600, func(n int64) bool { return n >= writeBuffer }, false},
		{"after the first flush over a reused buffer", 600, func(n int64) bool { return n >= writeBuffer }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.dirty {
				// The pool hands this buffer to the next writer on this
				// goroutine (or, under -race, may drop it).
				buf := new([writeBuffer]byte)
				copy(buf[:], (&header{DataOff: headerSize, DeflineOff: headerSize, IndexOff: headerSize}).marshal())
				writeBufs.Put(buf)
			}
			f, err := fs.Create("abandoned")
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewFragmentWriter(f, seq.Nucleotide)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range randomSeqs(util.NewRNG(28), tc.seqs, 8000, 8000) {
				if err := w.Append(s); err != nil {
					t.Fatal(err)
				}
			}
			st, err := fs.Stat("abandoned")
			if err != nil {
				t.Fatal(err)
			}
			if !tc.size(st.Size) {
				t.Fatalf("abandoned writer left a %d-byte file", st.Size)
			}
			if _, err := OpenFragment(fs, "abandoned"); err == nil || !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("OpenFragment of an abandoned fragment: %v, want a bad-magic error", err)
			}
		})
	}
}

// forgedRow is one fragment file whose header or index was forged.
type forgedRow struct {
	name  string
	bytes []byte
}

// forgedFragments returns a valid fragment's bytes and one forged copy
// per way its header or index can lie: fragment bytes arrive from data
// servers over the network.
func forgedFragments(tb testing.TB) (good []byte, rows []forgedRow) {
	tb.Helper()
	mem := chio.NewMemFS()
	buildFragment(tb, mem, "good", randomSeqs(util.NewRNG(27), 6, 20, 200))
	good, err := chio.ReadFull(mem, "good")
	if err != nil {
		tb.Fatal(err)
	}
	u64 := func(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	put := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	dataOff, deflineOff, indexOff := u64(good, 16), u64(good, 24), u64(good, 32)
	rec := int(indexOff) + indexEntry // the second index record
	for _, row := range []struct {
		name  string
		forge func(b []byte)
	}{
		{"kind byte 1", func(b []byte) { b[8] = 1 }},
		{"index before deflines", func(b []byte) { put(b, 32, deflineOff-1) }},
		{"deflines before data", func(b []byte) { put(b, 24, 10) }},
		{"data region past deflines", func(b []byte) { put(b, 16, 1<<62) }},
		{"index past any file", func(b []byte) { put(b, 32, 1<<63) }},
		{"index count past the file", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<24) }},
		{"defline region past the file", func(b []byte) { put(b, 32, deflineOff+1<<30) }},
		{"defline region to MaxInt64", func(b []byte) { put(b, 32, math.MaxInt64) }},
		{"defline span past its region", func(b []byte) { binary.LittleEndian.PutUint32(b[rec+24:], 1<<20) }},
		{"defline span wraps", func(b []byte) {
			put(b, rec+16, math.MaxUint64)
			binary.LittleEndian.PutUint32(b[rec+24:], 2)
		}},
		{"payload past data region", func(b []byte) { put(b, rec, deflineOff-dataOff+8) }},
		{"payload length wraps", func(b []byte) { put(b, rec+8, math.MaxUint64) }},
	} {
		forged := append([]byte(nil), good...)
		row.forge(forged)
		rows = append(rows, forgedRow{row.name, forged})
	}
	return good, rows
}

// TestOpenFragmentRejectsForgedFragments requires an error from every
// forged fragment, by open or by the first read, instead of an
// underflowed allocation, a negative read size, an out-of-range slice,
// or an allocation of whatever size the header claims.
func TestOpenFragmentRejectsForgedFragments(t *testing.T) {
	good, rows := forgedFragments(t)
	mem := chio.NewMemFS()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := chio.WriteFull(mem, "forged", row.bytes); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := readFragment(mem, "forged")
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("forged fragment read without error")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
				t.Errorf("reading a %d-byte fragment allocated %d bytes", len(row.bytes), grew)
			}
		})
	}
	if err := chio.WriteFull(mem, "good", good); err != nil {
		t.Fatal(err)
	}
	if err := readFragment(mem, "good"); err != nil {
		t.Fatalf("unforged fragment: %v", err)
	}
}

// TestVerifyChecksumRejectsForgedIndex: open reads the header alone,
// so it rejects the forged headers and nothing else; every forged
// index then fails VerifyChecksum, which checks the index before the
// data, so `dbinfo -verify` reports it corrupt. The error names the
// fragment and is kept for every later call.
func TestVerifyChecksumRejectsForgedIndex(t *testing.T) {
	forgedHeader := map[string]bool{
		"kind byte 1": true, "index before deflines": true, "deflines before data": true,
		"data region past deflines": true, "index past any file": true,
	}
	_, rows := forgedFragments(t)
	mem := chio.NewMemFS()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := chio.WriteFull(mem, "forged", row.bytes); err != nil {
				t.Fatal(err)
			}
			fr, err := OpenFragment(mem, "forged")
			if forgedHeader[row.name] {
				if err == nil {
					fr.Close()
					t.Fatal("forged header opened")
				}
				return
			}
			if err != nil {
				t.Fatalf("open read more than the header: %v", err)
			}
			defer fr.Close()
			err = fr.VerifyChecksum()
			if err == nil {
				t.Fatal("forged index passed VerifyChecksum")
			}
			if !strings.Contains(err.Error(), "forged") {
				t.Errorf("VerifyChecksum = %v, want an error naming the fragment", err)
			}
			if again := fr.VerifyChecksum(); again == nil || again.Error() != err.Error() {
				t.Errorf("second VerifyChecksum = %v, want the kept %v", again, err)
			}
		})
	}
}

// FuzzOpenFragment feeds whole fragment files to the reader, seeded
// with a valid fragment and every forged row: each input must read
// cleanly or fail with an error, never panic.
func FuzzOpenFragment(f *testing.F) {
	good, rows := forgedFragments(f)
	f.Add(good)
	for _, row := range rows {
		f.Add(row.bytes)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		mem := chio.NewMemFS()
		if err := chio.WriteFull(mem, "frag", b); err != nil {
			t.Fatal(err)
		}
		_ = readFragment(mem, "frag")
	})
}

// readFragment opens a fragment and reads every sequence's letters,
// streamed and then by random access, returning the first error.
func readFragment(fs chio.FileSystem, path string) error {
	fr, err := OpenFragment(fs, path)
	if err != nil {
		return err
	}
	defer fr.Close()
	src := fr.Source(0)
	for {
		s, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.Letters()
	}
	for i := 0; i < fr.NumSequences(); i++ {
		s, err := fr.Sequence(i)
		if err != nil {
			return err
		}
		s.Letters()
	}
	return nil
}

func TestFormatBalancesFragments(t *testing.T) {
	fs := chio.NewMemFS()
	rng := util.NewRNG(22)
	seqs := randomSeqs(rng, 64, 100, 2000)
	a, err := Format(fs, "nt", seq.Nucleotide, 4, fastaOf(t, seqs).Read)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fragments) != 4 {
		t.Fatalf("fragments = %d", len(a.Fragments))
	}
	var total int64
	min, max := int64(1<<60), int64(0)
	for _, fi := range a.Fragments {
		total += fi.Letters
		if fi.Letters < min {
			min = fi.Letters
		}
		if fi.Letters > max {
			max = fi.Letters
		}
	}
	if total != a.Letters {
		t.Errorf("fragment letters %d != alias letters %d", total, a.Letters)
	}
	// Greedy balancing should keep fragments within ~1 max-sequence
	// of each other.
	if max-min > 2000 {
		t.Errorf("imbalance: min=%d max=%d", min, max)
	}
}

func TestFormatAndReadBack(t *testing.T) {
	fs := chio.NewMemFS()
	rng := util.NewRNG(23)
	seqs := randomSeqs(rng, 30, 50, 300)
	if _, err := Format(fs, "db", seq.Nucleotide, 3, fastaOf(t, seqs).Read); err != nil {
		t.Fatal(err)
	}
	a, err := ReadAlias(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	if a.Seqs != 30 || a.Kind != seq.Nucleotide || a.Title != "db" {
		t.Errorf("alias: %+v", a)
	}
	frags, err := OpenAll(fs, a)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for _, fr := range frags {
		for i := 0; i < fr.NumSequences(); i++ {
			s, err := fr.Sequence(i)
			if err != nil {
				t.Fatal(err)
			}
			got[s.ID] = s.Letters()
		}
		fr.Close()
	}
	if len(got) != len(seqs) {
		t.Fatalf("read back %d sequences, want %d", len(got), len(seqs))
	}
	for _, want := range seqs {
		if !bytes.Equal(got[want.ID], want.Data) {
			t.Errorf("sequence %s corrupted", want.ID)
		}
	}
}

func TestFragmentSourceStreamsAll(t *testing.T) {
	fs := chio.NewMemFS()
	rng := util.NewRNG(24)
	seqs := randomSeqs(rng, 25, 200, 900)
	if _, err := Format(fs, "db", seq.Nucleotide, 1, fastaOf(t, seqs).Read); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFragment(fs, FragmentPath("db", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	// A tiny chunk size forces multiple refills.
	src := fr.Source(512)
	var count int
	for {
		s, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Letters()) == 0 {
			t.Errorf("empty sequence %s", s.ID)
		}
		count++
	}
	if count != 25 {
		t.Errorf("streamed %d sequences, want 25", count)
	}
}

func TestFragmentSourceMatchesRandomAccess(t *testing.T) {
	fs := chio.NewMemFS()
	rng := util.NewRNG(25)
	seqs := randomSeqs(rng, 12, 50, 400)
	if _, err := Format(fs, "db", seq.Nucleotide, 1, fastaOf(t, seqs).Read); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFragment(fs, FragmentPath("db", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	src := fr.Source(0)
	for i := 0; ; i++ {
		streamed, err := src.Next()
		if err == io.EOF {
			if i != fr.NumSequences() {
				t.Fatalf("stream ended at %d of %d", i, fr.NumSequences())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		direct, err := fr.Sequence(i)
		if err != nil {
			t.Fatal(err)
		}
		if streamed.ID != direct.ID || !bytes.Equal(streamed.Letters(), direct.Letters()) {
			t.Errorf("sequence %d differs between stream and random access", i)
		}
	}
}

// TestDecodedNucleotidesOwnPackedPayloads pins the one nucleotide form
// on a backend without zero-copy views: the chunked stream and random
// access both hand out 2-bit packed sequences whose payload is an
// exact-size buffer of their own, not a window into the chunk.
func TestDecodedNucleotidesOwnPackedPayloads(t *testing.T) {
	fs := chio.NewMemFS()
	seqs := randomSeqs(util.NewRNG(26), 12, 1, 400)
	if _, err := Format(fs, "db", seq.Nucleotide, 1, fastaOf(t, seqs).Read); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFragment(fs, FragmentPath("db", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	check := func(how string, i int, s *seq.Sequence) {
		t.Helper()
		packed, n := s.Packed2Bit()
		if packed == nil || n != len(seqs[i].Data) {
			t.Fatalf("%s sequence %d: packed payload %v of %d letters, want %d letters packed", how, i, packed != nil, n, len(seqs[i].Data))
		}
		if cap(packed) != len(packed) {
			t.Errorf("%s sequence %d: payload len %d cap %d; it must own its bytes, not share the chunk", how, i, len(packed), cap(packed))
		}
		if !bytes.Equal(s.Letters(), seqs[i].Data) {
			t.Errorf("%s sequence %d: letters differ from the input", how, i)
		}
	}
	src := fr.Source(1 << 10) // several sequences per chunk
	for i := range seqs {
		s, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		check("streamed", i, s)
		if s, err = fr.Sequence(i); err != nil {
			t.Fatal(err)
		}
		check("random-access", i, s)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("stream past the last sequence: %v, want io.EOF", err)
	}
}

func TestAliasRoundTrip(t *testing.T) {
	a := &Alias{
		Title: "nt", Kind: seq.Nucleotide, Seqs: 100, Letters: 54321,
		Fragments: []FragmentInfo{
			{Path: "nt.000.pfr", Seqs: 50, Letters: 30000},
			{Path: "nt.001.pfr", Seqs: 50, Letters: 24321},
		},
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseAlias(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Title != a.Title || back.Seqs != a.Seqs || back.Letters != a.Letters {
		t.Errorf("round trip: %+v", back)
	}
	if len(back.Fragments) != 2 || back.Fragments[1].Letters != 24321 {
		t.Errorf("fragments: %+v", back.Fragments)
	}
}

func TestParseAliasErrors(t *testing.T) {
	cases := []string{
		"", // no fragments
		"KIND alien\nFRAGMENT f 1 1\n",
		"BOGUS x\n",
		"FRAGMENT onlypath\n",
		"SEQS notanumber\nFRAGMENT f 1 1\n",
	}
	for _, c := range cases {
		if _, err := ParseAlias(strings.NewReader(c)); err == nil {
			t.Errorf("ParseAlias(%q) should fail", c)
		}
	}
	// A protein database from an older formatdb is refused by name.
	if _, err := ParseAlias(strings.NewReader("KIND protein\nFRAGMENT f 1 1\n")); err == nil || !strings.Contains(err.Error(), `"protein"`) {
		t.Errorf("KIND protein: %v, want an error naming the kind", err)
	}
}

func TestFormatZeroFragments(t *testing.T) {
	fs := chio.NewMemFS()
	if _, err := Format(fs, "x", seq.Nucleotide, 0, fastaOf(t, nil).Read); err == nil {
		t.Error("zero fragments accepted")
	}
}

func TestFragmentPathNames(t *testing.T) {
	if FragmentPath("nt", 7) != "nt.007.pfr" {
		t.Errorf("FragmentPath = %s", FragmentPath("nt", 7))
	}
	if AliasPath("nt") != "nt.pal" {
		t.Errorf("AliasPath = %s", AliasPath("nt"))
	}
}

func TestChecksumVerification(t *testing.T) {
	fs := chio.NewMemFS()
	rng := util.NewRNG(26)
	seqs := randomSeqs(rng, 8, 100, 600)
	if _, err := Format(fs, "db", seq.Nucleotide, 1, fastaOf(t, seqs).Read); err != nil {
		t.Fatal(err)
	}
	path := FragmentPath("db", 0)
	fr, err := OpenFragment(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.VerifyChecksum(); err != nil {
		t.Fatalf("clean fragment failed verification: %v", err)
	}
	fr.Close()

	// Flip one byte in the data region: verification must fail.
	raw, err := chio.ReadFull(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+10] ^= 0xFF
	if err := chio.WriteFull(fs, path, raw); err != nil {
		t.Fatal(err)
	}
	fr2, err := OpenFragment(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr2.Close()
	if err := fr2.VerifyChecksum(); err == nil {
		t.Fatal("corrupted fragment passed verification")
	}

	// A file whose ReadAt comes back short without an error: the
	// failure must say the data ended early, not wrap a nil error.
	fr3, err := OpenFragment(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr3.Close()
	// Load the index first, so the short read is a data read.
	if _, _, err := fr3.regions(false); err != nil {
		t.Fatal(err)
	}
	fr3.f = halfReader{fr3.f}
	if err := fr3.VerifyChecksum(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read: VerifyChecksum = %v, want io.ErrUnexpectedEOF", err)
	}
}

// halfReader serves half of every ReadAt of more than one byte and
// reports no error, as a ReaderAt may.
type halfReader struct{ chio.File }

func (h halfReader) ReadAt(p []byte, off int64) (int, error) {
	return h.File.ReadAt(p[:max(len(p)/2, min(len(p), 1))], off)
}

func TestFragmentRoundTripQuick(t *testing.T) {
	// Property: any set of valid DNA sequences written to a fragment
	// reads back identically (IDs, deflines, letters), in order.
	fs := chio.NewMemFS()
	counter := 0
	f := func(raw [][]byte, descSel []bool) bool {
		counter++
		name := "q" + string(rune('0'+counter%10)) + string(rune('0'+(counter/10)%10))
		var seqs []*seq.Sequence
		for i, r := range raw {
			if len(r) == 0 {
				continue
			}
			data := make([]byte, len(r))
			for j, b := range r {
				data[j] = seq.NucLetter[b&3]
			}
			desc := ""
			if i < len(descSel) && descSel[i] {
				desc = "described"
			}
			seqs = append(seqs, &seq.Sequence{
				ID:   "s" + string(rune('A'+i%26)),
				Desc: desc,
				Kind: seq.Nucleotide,
				Data: data,
			})
		}
		fh, err := fs.Create(name)
		if err != nil {
			return false
		}
		w, err := NewFragmentWriter(fh, seq.Nucleotide)
		if err != nil {
			return false
		}
		for _, s := range seqs {
			if err := w.Append(s); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		fr, err := OpenFragment(fs, name)
		if err != nil {
			return false
		}
		defer fr.Close()
		if fr.NumSequences() != len(seqs) {
			return false
		}
		if err := fr.VerifyChecksum(); err != nil {
			return false
		}
		for i, want := range seqs {
			got, err := fr.Sequence(i)
			if err != nil || got.ID != want.ID || got.Desc != want.Desc || !bytes.Equal(got.Letters(), want.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFragmentWriterAppendAllocs is Append's allocation budget: none.
// The payload is packed into a buffer the writer reuses and the
// defline is appended straight into the defline region; the growth of
// the regions and of the write buffer is amortized over the run.
func TestFragmentWriterAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	f, err := chio.NewMemFS().Create("frag")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewFragmentWriter(f, seq.Nucleotide)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := &seq.Sequence{
		ID:   "gi|1|ref|NT_004321.1",
		Desc: "Homo sapiens chromosome 1 genomic contig, reference assembly",
		Kind: seq.Nucleotide,
		Data: bytes.Repeat([]byte("ACGTN"), 300),
	}
	// 1000 appends of 375 packed bytes stay under one write buffer, so
	// no write reaches the file while allocations are counted.
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Append = %.0f allocs per sequence, budget is 0", allocs)
	}
}

// TestFormatStopsReadingOnError: an Append failure or an error from
// next ends Format with that error, and once Format has returned, next
// is never called again and no goroutine of Format's is left running.
func TestFormatStopsReadingOnError(t *testing.T) {
	boom := errors.New("boom")
	for _, k := range []int{0, 1, 5, 200} {
		for _, nextFails := range []bool{false, true} {
			var calls atomic.Int64
			var returned atomic.Bool
			next := func() (*seq.Sequence, error) {
				if returned.Load() {
					t.Error("next called after Format returned")
				}
				n := calls.Add(1)
				if n == int64(k+1) {
					if nextFails {
						return nil, boom
					}
					return &seq.Sequence{ID: "bad", Data: []byte("AC*T")}, nil
				}
				return &seq.Sequence{ID: "good", Data: []byte("ACGTACGT")}, nil
			}
			_, err := Format(chio.NewMemFS(), "db", seq.Nucleotide, 2, next)
			returned.Store(true)
			if nextFails && err != boom {
				t.Errorf("k=%d: next's error came back as %v", k, err)
			}
			if want := "blastdb: bad: seq: cannot 2-bit pack letter '*' at position 3"; !nextFails && (err == nil || err.Error() != want) {
				t.Errorf("k=%d: error %v, want %s", k, err, want)
			}
			if n := formatGoroutines(5 * time.Second); n != 0 {
				t.Errorf("k=%d: %d goroutines of Format's still running 5s after it returned", k, n)
			}
		}
	}
}

// TestFormatWhitespaceParity: whitespace inside sequence lines, CRLF
// line ends, blank lines and comments change nothing Format writes:
// the fragments and the alias are byte for byte those of the stripped
// text. A letter with no 2-bit code fails Format with an error naming
// the record, the letter and its position counted without whitespace,
// also when the letter lies past the first write buffer's worth of the
// record's letters.
func TestFormatWhitespaceParity(t *testing.T) {
	seqs := randomSeqs(util.NewRNG(76), 200, 0, 3000)
	var clean, messy bytes.Buffer
	if err := seq.WriteFasta(&clean, 70, seqs...); err != nil {
		t.Fatal(err)
	}
	rng := util.NewRNG(77)
	messy.WriteString("; a comment before the first record\r\n\r\n")
	for _, s := range seqs {
		fmt.Fprintf(&messy, ">%s\r\n", s.Defline())
		for rest := s.Data; len(rest) > 0; {
			line := rest[:min(len(rest), 1+rng.Intn(90))]
			rest = rest[len(line):]
			for _, b := range line {
				if rng.Intn(12) == 0 {
					messy.WriteString([]string{" ", "\t", "  \t"}[rng.Intn(3)])
				}
				messy.WriteByte(b)
			}
			messy.WriteString([]string{"\r\n", " \r\n", "\t\n", "\r\n\r\n", "\r\n; comment\r\n"}[rng.Intn(5)])
		}
	}
	format := func(text []byte) *chio.MemFS {
		t.Helper()
		mem := chio.NewMemFS()
		if _, err := Format(mem, "db", seq.Nucleotide, 3, seq.NewFastaReader(bytes.NewReader(text), seq.Nucleotide).Read); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	want, got := format(clean.Bytes()), format(messy.Bytes())
	for _, name := range []string{AliasPath("db"), FragmentPath("db", 0), FragmentPath("db", 1), FragmentPath("db", 2)} {
		w, err := chio.ReadFull(want, name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := chio.ReadFull(got, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s of the text with whitespace differs from that of the stripped text", name)
		}
	}

	long := bytes.Repeat([]byte("ACGT"), 1<<20+25) // past the first write buffer
	long[4<<20+49] = '*'
	for _, tc := range []struct{ text, want string }{
		{">ok\nACGT\n>bad x\r\nAC G\tT\r\n A*G\r\n", "blastdb: bad: seq: cannot 2-bit pack letter '*' at position 6"},
		{">long\n AC\tGT \r\n" + string(long[4:]) + "\n", "blastdb: long: seq: cannot 2-bit pack letter '*' at position 4194354"},
	} {
		_, err := Format(chio.NewMemFS(), "db", seq.Nucleotide, 1, seq.NewFastaReader(strings.NewReader(tc.text), seq.Nucleotide).Read)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Format = %v, want %s", err, tc.want)
		}
	}
}

// tailFailFS fails every Write to the files named in fail with that
// file's error; WriteAt and the other files pass through.
type tailFailFS struct {
	chio.FileSystem
	fail map[string]error
}

func (fs tailFailFS) Create(name string) (chio.File, error) {
	f, err := fs.FileSystem.Create(name)
	if err != nil || fs.fail[name] == nil {
		return f, err
	}
	return tailFailFile{File: f, err: fs.fail[name]}, nil
}

type tailFailFile struct {
	chio.File
	err error
}

func (f tailFailFile) Write(p []byte) (int, error) { return 0, f.err }

// TestFormatFailedCloseSavesNoAlias: fragments 5 and 7 of 8 fail the
// tail write their Close makes (each fragment is under 1 MiB, so the
// tail is its only Write). Format returns fragment 5's error, the
// first in fragment order, writes no alias, and leaves none of its
// goroutines running.
func TestFormatFailedCloseSavesNoAlias(t *testing.T) {
	err5, err7 := errors.New("fragment 5 tail"), errors.New("fragment 7 tail")
	mem := chio.NewMemFS()
	fs := tailFailFS{FileSystem: mem, fail: map[string]error{
		FragmentPath("db", 5): err5,
		FragmentPath("db", 7): err7,
	}}
	seqs := randomSeqs(util.NewRNG(71), 64, 100, 2000)
	_, err := Format(fs, "db", seq.Nucleotide, 8, fastaOf(t, seqs).Read)
	if !errors.Is(err, err5) {
		t.Fatalf("Format = %v, want fragment 5's %v", err, err5)
	}
	if _, err := mem.Stat(AliasPath("db")); err == nil {
		t.Error("an alias was saved for a database whose fragment failed to close")
	}
	if n := formatGoroutines(5 * time.Second); n != 0 {
		t.Errorf("%d goroutines of Format's still running 5s after it returned", n)
	}
}

// createFailFS fails the Create of the file named fail and counts the
// files it did create, and those of them still open.
type createFailFS struct {
	chio.FileSystem
	fail          string
	err           error
	created, open *atomic.Int64
}

func (fs createFailFS) Create(name string) (chio.File, error) {
	if name == fs.fail {
		return nil, fs.err
	}
	f, err := fs.FileSystem.Create(name)
	if err != nil {
		return nil, err
	}
	fs.created.Add(1)
	fs.open.Add(1)
	return &countedFile{File: f, open: fs.open}, nil
}

type countedFile struct {
	chio.File
	open   *atomic.Int64
	closed atomic.Bool
}

func (f *countedFile) Close() error {
	if !f.closed.Swap(true) {
		f.open.Add(-1)
	}
	return f.File.Close()
}

// TestFormatFailedCreateClosesFragments: when the Create of fragment k
// of 8 fails, Format returns that error, every fragment file it did
// create (the creates run concurrently, so even at k = 0 there are
// some) is closed and fails OpenFragment, no alias is written, and
// none of Format's goroutines is left running.
func TestFormatFailedCreateClosesFragments(t *testing.T) {
	seqs := randomSeqs(util.NewRNG(72), 16, 100, 500)
	for _, k := range []int{0, 3, 7} {
		boom := fmt.Errorf("create fragment %d", k)
		mem := chio.NewMemFS()
		var created, open atomic.Int64
		fs := createFailFS{FileSystem: mem, fail: FragmentPath("db", k), err: boom, created: &created, open: &open}
		_, err := Format(fs, "db", seq.Nucleotide, 8, fastaOf(t, seqs).Read)
		if err != boom {
			t.Fatalf("k=%d: Format = %v, want %v", k, err, boom)
		}
		if created.Load() == 0 {
			t.Fatalf("k=%d: no fragment file was created; the test is vacuous", k)
		}
		if n := open.Load(); n != 0 {
			t.Errorf("k=%d: %d of %d created fragment files left open", k, n, created.Load())
		}
		if _, err := mem.Stat(AliasPath("db")); err == nil {
			t.Errorf("k=%d: an alias was saved for a database whose fragment was never created", k)
		}
		for i := range 8 {
			path := FragmentPath("db", i)
			if _, err := mem.Stat(path); err != nil {
				continue // not created
			}
			if fr, err := OpenFragment(mem, path); err == nil {
				t.Errorf("k=%d: %s of a failed Format opens as a fragment of %d sequences", k, path, fr.NumSequences())
				fr.Close()
			}
		}
		if n := formatGoroutines(5 * time.Second); n != 0 {
			t.Errorf("k=%d: %d goroutines of Format's still running 5s after it returned", k, n)
		}
	}
}

// formatFrame matches a stack frame of Format or of a goroutine it
// started (its closures, and the "created by" line of their stacks).
var formatFrame = regexp.MustCompile(`blastdb\.Format[.( ]`)

// formatGoroutines waits up to limit for every goroutine with a
// Format frame on its stack to exit, and returns how many remain. A
// goroutine of Format's can outlive Format's return by a moment (its
// deferred WaitGroup Done runs before it exits), but one that leaks
// never exits. Only Format's own goroutines count, so no other
// test's or the runtime's goroutines can read as Format's.
func formatGoroutines(limit time.Duration) int {
	buf := make([]byte, 1<<16)
	for deadline := time.Now().Add(limit); ; time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		count := 0
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if formatFrame.MatchString(g) {
				count++
			}
		}
		if count == 0 || time.Now().After(deadline) {
			return count
		}
	}
}
