package blastd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"pario/internal/chio"
	"pario/internal/pblast"
)

// FuzzSearchBody posts arbitrary bytes as a /search body to a server
// whose store holds no database, so no request reaches the worker
// pool. Each must be answered 400 (bad JSON, program or query) or 404
// (no such database), never a panic or a 500, and a 404 only for a
// query parseQuery accepts and that validates as nucleotides.
func FuzzSearchBody(f *testing.F) {
	for _, body := range []string{
		`{"db":"nt","query":"ACGTACGTAC","client":"f"}`,
		`{"db":"nt","query":`,
		`{"db":"nt","query":""}`,
		`{"db":"nt","query":">q desc\nACGT\nNNAC\n","program":"blastn","megablast":true}`,
		`{"db":"nt","query":">q\nACGT1234ACGT\n"}`,
		`{"db":"nt","query":"hello world 42"}`,
		`{"db":"nt","query":"ACGT*EFIJ"}`,
	} {
		f.Add([]byte(body))
	}
	fs := chio.NewMemFS()
	srv, err := New(context.Background(), Config{
		FS:       fs,
		WorkerFS: func(int) chio.FileSystem { return fs },
		Workers:  1,
		Search:   pblast.NewConfig("nt"),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusNotFound:
			var req SearchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("404 for a body that does not decode: %v", err)
			}
			q, err := parseQuery(req.Query)
			if err != nil {
				t.Fatalf("404 for query %q, which parseQuery rejects: %v", req.Query, err)
			}
			if err := q.Validate(); err != nil {
				t.Fatalf("404 for query %q, which is not nucleotides: %v", req.Query, err)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
