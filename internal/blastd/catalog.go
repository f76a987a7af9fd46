package blastd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"pario/internal/blastdb"
	"pario/internal/chio"
)

// dbCatalog tracks the databases the daemon serves. Each database has
// a version — a digest of its alias file — so the result cache can be
// keyed by content generation: reformatting a database and poking
// Refresh (or the /admin/invalidate endpoint) bumps the version and
// orphans every cached result computed against the old data.
type dbCatalog struct {
	fs    chio.FileSystem
	mu    sync.Mutex
	dbs   map[string]*dbInfo
	known map[string]bool // names the daemon is allowed to serve; nil = any
}

type dbInfo struct {
	Alias   *blastdb.Alias
	Version string
}

func newDBCatalog(fs chio.FileSystem, serve []string) *dbCatalog {
	c := &dbCatalog{fs: fs, dbs: make(map[string]*dbInfo)}
	if len(serve) > 0 {
		c.known = make(map[string]bool, len(serve))
		for _, name := range serve {
			c.known[name] = true
		}
	}
	return c
}

// Lookup returns the alias and current version for a database,
// loading it on first use. Unknown or unreadable databases map to
// ErrDBNotFound.
func (c *dbCatalog) Lookup(name string) (*dbInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.known != nil && !c.known[name] {
		return nil, fmt.Errorf("%w: %q", ErrDBNotFound, name)
	}
	if info, ok := c.dbs[name]; ok {
		return info, nil
	}
	info, err := c.loadLocked(name)
	if err != nil {
		return nil, err
	}
	c.dbs[name] = info
	return info, nil
}

// Refresh re-reads a database's alias from storage and reports
// whether its version changed. The caller is responsible for
// invalidating caches when it did.
func (c *dbCatalog) Refresh(name string) (info *dbInfo, changed bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.known != nil && !c.known[name] {
		return nil, false, fmt.Errorf("%w: %q", ErrDBNotFound, name)
	}
	old := c.dbs[name]
	info, err = c.loadLocked(name)
	if err != nil {
		return nil, false, err
	}
	c.dbs[name] = info
	return info, old == nil || old.Version != info.Version, nil
}

func (c *dbCatalog) loadLocked(name string) (*dbInfo, error) {
	raw, err := chio.ReadFull(c.fs, blastdb.AliasPath(name))
	if err != nil {
		return nil, fmt.Errorf("%w: %q (%v)", ErrDBNotFound, name, err)
	}
	alias, err := blastdb.ParseAlias(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%w: %q (%v)", ErrDBNotFound, name, err)
	}
	sum := sha256.Sum256(raw)
	return &dbInfo{Alias: alias, Version: hex.EncodeToString(sum[:])[:12]}, nil
}
