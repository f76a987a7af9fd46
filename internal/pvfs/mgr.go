package pvfs

import (
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pario/internal/telemetry"
)

// MetaServer is the PVFS metadata manager: it owns the name space
// (name -> handle, stripe parameters, size) and, for CEFT-PVFS,
// collects the data servers' load heartbeats that clients use to skip
// hot spots. No file data flows through it.
type MetaServer struct {
	ln      net.Listener
	wg      sync.WaitGroup
	tracker *connTracker
	tel     *serverMetrics
	loadsG  *telemetry.GaugeVec

	mu         sync.Mutex
	files      map[string]*Meta
	nextHandle uint64
	numServers int
	stripe     int64
	loads      map[int]loadEntry
	loadTTL    time.Duration
}

// loadEntry is one data server's last heartbeat and when it arrived;
// entries older than the TTL are expired so hot-spot decisions and run
// reports never act on a dead server's final load.
type loadEntry struct {
	load float64
	at   time.Time
}

// DefaultLoadTTL is how long a load heartbeat stays valid without
// being refreshed: 8 default heartbeat periods, so a couple of dropped
// beats don't evict a live server but a dead one disappears within
// seconds.
const DefaultLoadTTL = 2 * time.Second

// MetaConfig configures StartMetaServer.
type MetaConfig struct {
	// Addr is the TCP listen address.
	Addr string
	// NumServers is the data-server count files are striped over.
	NumServers int
	// StripeSize defaults to DefaultStripeSize (64 KB).
	StripeSize int64
	// Telemetry, if non-nil, receives the manager's request metrics
	// and the per-server load map gathered from iod heartbeats.
	Telemetry *telemetry.Registry
	// Tracer, if non-nil, records server-side spans for traced requests.
	Tracer *telemetry.Tracer
	// LoadTTL bounds how long a heartbeat stays valid (0 means
	// DefaultLoadTTL; negative disables expiry).
	LoadTTL time.Duration
}

// StartMetaServer launches the manager.
func StartMetaServer(cfg MetaConfig) (*MetaServer, error) {
	if cfg.StripeSize == 0 {
		cfg.StripeSize = DefaultStripeSize
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	if cfg.LoadTTL == 0 {
		cfg.LoadTTL = DefaultLoadTTL
	}
	ms := &MetaServer{
		ln:         ln,
		files:      make(map[string]*Meta),
		nextHandle: 1,
		numServers: cfg.NumServers,
		stripe:     cfg.StripeSize,
		loads:      make(map[int]loadEntry),
		loadTTL:    cfg.LoadTTL,
		tracker:    newConnTracker(),
	}
	ms.tel = newServerMetrics(cfg.Telemetry, cfg.Tracer, "mgr")
	if cfg.Telemetry != nil {
		ms.loadsG = cfg.Telemetry.GaugeVec("pario_mgr_server_load",
			"Last load heartbeat received from each data server.",
			"server")
	}
	go acceptLoop(ln, ms.handle, &ms.wg, ms.tracker)
	return ms, nil
}

// Addr returns the manager's listen address.
func (ms *MetaServer) Addr() string { return ms.ln.Addr().String() }

func (ms *MetaServer) handle(req *Request) *Response {
	start := time.Now()
	resp := ms.dispatch(req)
	ms.tel.observe(req, resp, start, time.Since(start))
	return resp
}

// dispatch routes one decoded request to its op handler under the
// namespace lock.
func (ms *MetaServer) dispatch(req *Request) *Response {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	switch req.Op {
	case OpCreate:
		m, ok := ms.files[req.Name]
		if !ok {
			stripe := ms.stripe
			if req.Stripe > 0 {
				stripe = req.Stripe
			}
			m = &Meta{
				Name:       req.Name,
				Handle:     ms.nextHandle,
				StripeSize: stripe,
				NumServers: ms.numServers,
			}
			ms.nextHandle++
			ms.files[req.Name] = m
		}
		m.Size = 0 // create truncates
		return &Response{OK: true, Meta: *m}
	case OpLookup:
		m, ok := ms.files[req.Name]
		if !ok {
			return notFoundResp(req.Name)
		}
		return &Response{OK: true, Meta: *m}
	case OpStat:
		m, ok := ms.files[req.Name]
		if !ok {
			return notFoundResp(req.Name)
		}
		return &Response{OK: true, Meta: *m}
	case OpRemove:
		m, ok := ms.files[req.Name]
		if !ok {
			return notFoundResp(req.Name)
		}
		delete(ms.files, req.Name)
		return &Response{OK: true, Meta: *m}
	case OpSetSize:
		m, ok := ms.files[req.Name]
		if !ok {
			return notFoundResp(req.Name)
		}
		if req.Length > m.Size { // grow-only
			m.Size = req.Length
		}
		return &Response{OK: true, Meta: *m}
	case OpList:
		var metas []Meta
		for name, m := range ms.files {
			if strings.HasPrefix(name, req.Name) {
				metas = append(metas, *m)
			}
		}
		sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
		return &Response{OK: true, Metas: metas}
	case OpLoadReport:
		ms.loads[req.ServerID] = loadEntry{load: req.Load, at: time.Now()}
		if ms.loadsG != nil {
			ms.loadsG.With(strconv.Itoa(req.ServerID)).Set(req.Load)
		}
		return &Response{OK: true}
	case OpLoadQuery:
		return &Response{OK: true, Loads: ms.liveLoads()}
	}
	return errResp("meta server: unknown op %d", req.Op)
}

// liveLoads expires heartbeats older than the TTL — deleting their
// entries and clearing the corresponding load gauge label, so neither
// clients' hot-set logic nor scraped reports see a dead server's last
// load — and returns the surviving map. Callers hold ms.mu.
func (ms *MetaServer) liveLoads() map[int]float64 {
	now := time.Now()
	out := make(map[int]float64, len(ms.loads))
	for id, e := range ms.loads {
		if ms.loadTTL > 0 && now.Sub(e.at) > ms.loadTTL {
			delete(ms.loads, id)
			if ms.loadsG != nil {
				ms.loadsG.Delete(strconv.Itoa(id))
			}
			continue
		}
		out[id] = e.load
	}
	return out
}

// GetLoads returns the currently-live load heartbeats (entries past
// the TTL are expired first).
func (ms *MetaServer) GetLoads() map[int]float64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.liveLoads()
}

// Close stops the manager, force-closing live client connections.
func (ms *MetaServer) Close() error {
	err := ms.ln.Close()
	ms.tracker.closeAll()
	ms.wg.Wait()
	return err
}
