// Package blastd implements the always-on parallel BLAST search
// service: an HTTP/JSON front end over a persistent pblast worker
// pool, with admission control (bounded queue, priorities, per-client
// quotas), a result cache keyed by database version, and graceful
// drain on shutdown. cmd/blastd wires it to real storage backends;
// the service and alert smokes load it through scripts/smoke_lib.sh.
package blastd

import "errors"

// The client-facing error contract. Handlers translate these to HTTP
// statuses (429/400/404/503); programmatic callers branch with
// errors.Is, the same convention as chio.ErrTimeout / ErrServerDown.
var (
	// ErrOverloaded means the admission queue is full: the request
	// was shed to protect latency. Clients should back off and retry
	// (HTTP 429 with Retry-After).
	ErrOverloaded = errors.New("blastd: server overloaded")

	// ErrQuotaExceeded means this client already has its maximum
	// number of requests queued or running (HTTP 429 with
	// Retry-After).
	ErrQuotaExceeded = errors.New("blastd: per-client quota exceeded")

	// ErrBadQuery means the request is malformed: empty or
	// unparseable query sequence, unknown program, or invalid
	// parameters (HTTP 400).
	ErrBadQuery = errors.New("blastd: bad query")

	// ErrDBNotFound means the named database is not served by this
	// daemon (HTTP 404).
	ErrDBNotFound = errors.New("blastd: database not found")

	// ErrDraining means the server is shutting down and accepts no
	// new work; in-flight searches are completing (HTTP 503 with
	// Retry-After).
	ErrDraining = errors.New("blastd: server draining")
)
