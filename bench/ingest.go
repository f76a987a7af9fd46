package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/seq"
	"pario/internal/workload"
)

// ingestWorkload is `formatdb -io ceft`: FASTA text held in memory is
// parsed, packed and written as 8 fragments into a new database name
// on CEFT 2+2: many small appends, each duplicated to the mirror.
// After every timed format the database is read back, untimed, and
// compared with the same text formatted into memory.
type ingestWorkload struct {
	tr     *recorder
	cl     *cluster
	client *client
	text   []byte
	want   map[string][sha256.Size]byte // reference file, name without the database prefix
	bytes  int64                        // of the reference files

	durs []float64
	bad  int
}

const ingestRef = "ref"

func (w *ingestWorkload) setup(cfg config, tr *recorder) error {
	w.tr = tr
	var fasta bytes.Buffer
	spec := workload.NtLike("in8", cfg.ingestLetters, subSeed(cfg.seed, streamIngest))
	if _, _, err := workload.WriteFasta(&fasta, spec); err != nil {
		return err
	}
	w.text = fasta.Bytes()

	mem := chio.NewMemFS()
	if _, err := core.FormatDatabase(batchFS{mem}, ingestRef, seq.Nucleotide, fragments, bytes.NewReader(w.text)); err != nil {
		return fmt.Errorf("reference format: %w", err)
	}
	alias, err := blastdb.ReadAlias(mem, ingestRef)
	if err != nil {
		return err
	}
	w.want = map[string][sha256.Size]byte{}
	for i, fi := range alias.Fragments {
		data, err := chio.ReadFull(mem, fi.Path)
		if err != nil {
			return err
		}
		w.want[fragmentSuffix(ingestRef, i)] = sha256.Sum256(data)
		w.bytes += int64(len(data))
	}

	if w.cl, err = startCEFT(tr); err != nil {
		return err
	}
	if w.client, err = w.cl.dial(1); err != nil {
		return err
	}
	if _, err := w.format("warmup"); err != nil {
		return err
	}
	return w.readBack("warmup")
}

// fragmentSuffix is a fragment's file name without its database name.
func fragmentSuffix(db string, i int) string {
	return blastdb.FragmentPath(db, i)[len(db):]
}

func (w *ingestWorkload) format(name string) (time.Duration, error) {
	start := time.Now()
	_, err := core.FormatDatabase(w.client.fs, name, seq.Nucleotide, fragments, bytes.NewReader(w.text))
	return time.Since(start), err
}

// readBack checks what format wrote, then removes it.
func (w *ingestWorkload) readBack(name string) error {
	fs := w.client.fs
	alias, err := blastdb.ReadAlias(fs, name)
	if err != nil {
		return err
	}
	frags, err := blastdb.OpenAll(fs, alias)
	if err != nil {
		return err
	}
	for _, fr := range frags {
		if cerr := fr.VerifyChecksum(); cerr != nil && err == nil {
			err = cerr
		}
		fr.Close()
	}
	if err != nil {
		return err
	}
	if len(alias.Fragments) != len(w.want) {
		return fmt.Errorf("%s: %d fragments, reference has %d", name, len(alias.Fragments), len(w.want))
	}
	for i, fi := range alias.Fragments {
		data, err := chio.ReadFull(fs, fi.Path)
		if err != nil {
			return err
		}
		if sha256.Sum256(data) != w.want[fragmentSuffix(name, i)] {
			return fmt.Errorf("%s differs from the reference formatted in memory", fi.Path)
		}
		if err := fs.Remove(fi.Path); err != nil {
			return err
		}
	}
	return fs.Remove(blastdb.AliasPath(name))
}

func (w *ingestWorkload) measure(more func(int) bool) error {
	var run *spanBuf
	if w.tr != nil {
		run = w.tr.buf(allRanks, "")
	}
	for i := 0; more(i); i++ {
		name := fmt.Sprintf("in8_%03d", i)
		if w.tr != nil {
			w.tr.on.Store(true)
		}
		start := time.Now()
		d, err := w.format(name)
		if run != nil {
			run.addOp(layerRun, "run", i, "", start, time.Now(), 0)
			w.tr.on.Store(false)
		}
		if err != nil {
			return fmt.Errorf("format %s: %w", name, err)
		}
		w.durs = append(w.durs, d.Seconds())
		if err := w.readBack(name); err != nil {
			w.bad++
			fmt.Printf("# ingest_ceft %s: %v\n", name, err)
		}
	}
	return nil
}

func (w *ingestWorkload) verify() (attempted, failed int, err error) {
	return len(w.durs), w.bad, nil
}

func (w *ingestWorkload) samples() *sampleSet {
	s := summarize(scale(w.durs, 1000))
	return &sampleSet{
		durs: w.durs, ops: len(w.durs), wall: sum(w.durs),
		views: []view{
			{"ingest_mb_per_s", "MB/s", float64(len(w.text)) / 1e6 / (s.P50 / 1000), s},
		},
	}
}

func (w *ingestWorkload) layers(ss spanSet, m map[string]float64) error {
	f := w.cl.facts()
	f.ops = float64(len(w.durs))
	f.payloadMB = float64(len(w.text)) / 1e6
	f.fileBytes = float64(w.bytes)
	storageLayers(f, ss, m)
	var err error
	if m["blastdb.format_mem_mb_per_s"], err = rungFormatMem(w.text); err != nil {
		return err
	}
	m["seq.fasta_parse_mb_per_s"], err = rungFastaParse(w.text)
	return err
}

func (w *ingestWorkload) close() {
	if w.client != nil {
		w.client.close()
	}
	if w.cl != nil {
		w.cl.close()
	}
}
