// Package gateway is the cache-affinity front proxy for a replicated
// dgxsimd fleet (cmd/dgxsimgw wraps it in a daemon). One process = one
// result cache, so horizontal scale needs routing that keeps a repeated
// workload landing on the replica that has already simulated it: the
// gateway reads each body through the replicas' own request contract
// (service.Contract — the same endpoint table, body caps and strict
// decoders a replica serves with), fingerprints the workload it finds,
// and consistent-hashes that fingerprint across the replica set. The
// what-if traffic production fleets see is dominated by repeats (the
// Alibaba-PAI characterization), which is why affinity — not round-robin
// — is the scaling move: N replicas give N distinct warm caches instead
// of N copies of the same cold one.
//
// Semantics:
//
//   - Routing: POST bodies carrying a workload (/v1/simulate,
//     /v1/compare, /v1/validate) route by the workload's normalized
//     fingerprint; /v1/sweep and /v1/optimize by their base workload's
//     fingerprint (one sweep = one replica = one shared compile);
//     everything else (cluster specs, GETs, bodies the replica would
//     reject) by a hash of the body or path. Spelled-out defaults and
//     omitted ones route identically, exactly as they share a cache slot
//     in the replica.
//   - Body caps: each path's body is buffered (to resend on failover)
//     under the cap the replica enforces on it, so an oversized body is
//     refused at the edge with the replica's 413 envelope.
//   - Health: every replica's /healthz is probed on an interval; dead
//     replicas drop out of candidate selection and their keys fall to
//     the next ring member. When a replica returns, it gets exactly its
//     old keys back (the ring never rebuilds).
//   - Failover: a shed response (429/503 with Retry-After — the
//     replica's overload taxonomy) and a transport failure retry once on
//     the next ring member. Everything else — 4xx, 5xx, error envelopes
//     — passes through verbatim: the gateway adds routing, never
//     reinterprets the API.
//   - Streaming: response bodies are copied chunk-by-chunk with an
//     http.Flusher kick per chunk, so NDJSON sweep streams flow through
//     unbuffered and the error-envelope/streaming contracts hold
//     end-to-end.
//
// Every proxied response carries X-Gw-Replica naming the replica that
// served it (the smoke test asserts affinity with it), and /metrics on
// the gateway itself exposes per-replica health and routing counters.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Config tunes a Gateway.
type Config struct {
	// Replicas are the dgxsimd base URLs ("http://host:port"). At least
	// one is required; order is identity (the ring hashes the URL), so
	// keep it stable across gateway restarts.
	Replicas []string
	// VNodes is the number of ring points per replica (<= 0: 64).
	VNodes int
	// HealthInterval is the /healthz probe period (<= 0: 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (<= 0: min(HealthInterval, 1s)).
	HealthTimeout time.Duration
	// Client issues the proxied requests. Nil uses a client with no
	// overall timeout (streams may legitimately run long; the inbound
	// request's context still cancels the forward).
	Client *http.Client
}

// replica is one backend and its live state.
type replica struct {
	name string
	base *url.URL

	up atomic.Bool

	// Routing counters, reported on the gateway's /metrics.
	requests  *obs.Counter // forwards attempted (including failed ones)
	sheds     *obs.Counter // shed responses (429/503 + Retry-After) observed
	transport *obs.Counter // transport-level forward failures
}

// Gateway proxies one replica set. Create with New, serve Handler, stop
// the health loop with Close.
type Gateway struct {
	cfg      Config
	replicas []*replica
	ring     ring
	client   *http.Client
	health   *http.Client

	metrics   *obs.Registry
	failovers *obs.Counter // requests retried on the next ring member
	noReplica *obs.Counter // requests refused: no replica reachable

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New builds a gateway over the replica set and runs one synchronous
// health round, so the first request routes on observed — not assumed —
// liveness.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: at least one replica required")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = cfg.HealthInterval
		if cfg.HealthTimeout > time.Second {
			cfg.HealthTimeout = time.Second
		}
	}
	g := &Gateway{
		cfg:     cfg,
		client:  cfg.Client,
		health:  &http.Client{Timeout: cfg.HealthTimeout},
		metrics: obs.NewRegistry(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if g.client == nil {
		g.client = &http.Client{}
	}
	names := make([]string, 0, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		raw = strings.TrimRight(raw, "/")
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: replica %q is not an absolute URL", raw)
		}
		if slices.Contains(names, raw) {
			return nil, fmt.Errorf("gateway: replica %q listed twice", raw)
		}
		rep := &replica{name: raw, base: u}
		g.metrics.Func("dgxsimgw_replica_up", func() float64 {
			if rep.up.Load() {
				return 1
			}
			return 0
		}, "replica", raw)
		rep.requests = g.metrics.Counter("dgxsimgw_replica_requests_total", "replica", raw)
		rep.sheds = g.metrics.Counter("dgxsimgw_replica_sheds_total", "replica", raw)
		rep.transport = g.metrics.Counter("dgxsimgw_replica_transport_errors_total", "replica", raw)
		g.replicas = append(g.replicas, rep)
		names = append(names, raw)
	}
	g.failovers = g.metrics.Counter("dgxsimgw_failovers_total")
	g.noReplica = g.metrics.Counter("dgxsimgw_no_replica_total")
	// Routing keys come through the service's body memo (service.Contract).
	g.metrics.Func("dgxsimgw_decode_memo_hits_total", func() float64 { return float64(service.DecodeMemoStats().Hits) })
	g.metrics.Func("dgxsimgw_decode_memo_misses_total", func() float64 { return float64(service.DecodeMemoStats().Misses) })
	g.metrics.Func("dgxsimgw_decode_memo_evictions_total", func() float64 { return float64(service.DecodeMemoStats().Evictions) })
	g.ring = newRing(names, cfg.VNodes)
	g.checkAll()
	go g.healthLoop()
	return g, nil
}

// Close stops the health loop.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}

// healthLoop probes every replica on the configured interval.
func (g *Gateway) healthLoop() {
	defer close(g.done)
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.checkAll()
		case <-g.stop:
			return
		}
	}
}

// checkAll probes the replicas concurrently (one slow backend must not
// delay marking its siblings).
func (g *Gateway) checkAll() {
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			resp, err := g.health.Get(rep.name + "/healthz")
			ok := err == nil && resp.StatusCode == http.StatusOK
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			rep.up.Store(ok)
		}(rep)
	}
	wg.Wait()
}

// Handler returns the gateway's HTTP handler: its own /healthz and
// /metrics (per-replica health and routing, failovers and refusals),
// everything else proxied to the replica set.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", service.Allow(g.handleHealthz, http.MethodGet))
	mux.HandleFunc("/metrics", service.Allow(g.metrics.ServeHTTP, http.MethodGet))
	mux.HandleFunc("/", g.proxy)
	return mux
}

// handleHealthz reports the gateway healthy while at least one replica
// is: a fleet with one live member still serves.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for _, rep := range g.replicas {
		if rep.up.Load() {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
	}
	writeEnvelope(w, http.StatusServiceUnavailable, service.ErrorDetail{
		Code: CodeNoReplica, Message: "no healthy replica", Retryable: true,
	})
}

// candidates orders the replicas to try for a key: the ring sequence
// with live replicas first, then the ones health marked down — each
// group in ring order. Down replicas stay in the list (at the back)
// rather than being filtered out because probes lag reality in both
// directions: a replica that just recovered is still marked down until
// the next probe fires, and a doomed forward that fails cheaply beats
// refusing a request a replica would have served. A successful forward
// marks its replica up again immediately (see proxy), closing the loop.
func (g *Gateway) candidates(key string) []*replica {
	seq := g.ring.sequence(key)
	out := make([]*replica, 0, len(seq))
	var down []*replica
	for _, idx := range seq {
		if g.replicas[idx].up.Load() {
			out = append(out, g.replicas[idx])
		} else {
			down = append(down, g.replicas[idx])
		}
	}
	return append(out, down...)
}

// isShed recognizes the replicas' overload taxonomy: 429 (queue full) or
// 503 (deadline burnt queueing), both carrying Retry-After. Only these
// fail over — a 503 without Retry-After is not a dgxsimd shed and passes
// through like any other status.
func isShed(resp *http.Response) bool {
	return (resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable) &&
		resp.Header.Get("Retry-After") != ""
}

// maxAttempts bounds the forwards for one request: the affinity owner
// plus one failover to the next ring member. A second hop would trade
// latency for little — by then the fleet is saturated and the shed is
// the right answer.
const maxAttempts = 2

// proxy forwards one request along the key's ring sequence. The body is
// buffered so a failover can resend it, under the cap the replica would
// enforce on the same path: anything the replica would 413 is refused at
// the edge without burning a forward.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request) {
	maxBody, affinityKey := service.Contract(r.URL.Path)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeEnvelope(w, http.StatusRequestEntityTooLarge, service.ErrorDetail{
				Code: service.CodeBodyTooLarge, Message: err.Error(),
			})
			return
		}
		writeEnvelope(w, http.StatusBadRequest, service.ErrorDetail{
			Code: service.CodeBadRequest, Message: "read body: " + err.Error(),
		})
		return
	}

	cands := g.candidates(affinityKey(body))
	attempts := len(cands)
	if attempts > maxAttempts {
		attempts = maxAttempts
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		rep := cands[i]
		if i > 0 {
			g.failovers.Add(1)
		}
		resp, err := g.forward(r, rep, body)
		if err != nil {
			rep.transport.Add(1)
			// A replica we cannot reach is down no matter what the last
			// probe said; drop it now so sibling requests stop queueing
			// behind connection timeouts.
			rep.up.Store(false)
			lastErr = err
			continue
		}
		// Any HTTP response — including a shed — proves the replica
		// reachable; re-mark it up without waiting for the next probe, so
		// a stale down flag (a flap the probe has not re-observed yet)
		// cannot starve the replica of its keys.
		rep.up.Store(true)
		if isShed(resp) {
			rep.sheds.Add(1)
			if i+1 < attempts {
				// Shed-aware failover: this replica is loaded, its ring
				// neighbour may not be. Drain so the connection is reused.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				continue
			}
		}
		g.relay(w, resp, rep)
		return
	}
	g.noReplica.Add(1)
	msg := "no replica reachable"
	if lastErr != nil {
		msg = "no replica reachable: " + lastErr.Error()
	}
	writeEnvelope(w, http.StatusBadGateway, service.ErrorDetail{
		Code: CodeNoReplica, Message: msg, Retryable: true,
	})
}

// hopByHop are the connection-scoped headers a proxy must not forward
// (RFC 9110 §7.6.1).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// forward issues one attempt against one replica.
func (g *Gateway) forward(r *http.Request, rep *replica, body []byte) (*http.Response, error) {
	rep.requests.Add(1)
	u := *rep.base
	u.Path = strings.TrimRight(u.Path, "/") + r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	for _, h := range hopByHop {
		req.Header.Del(h)
	}
	req.ContentLength = int64(len(body))
	return g.client.Do(req)
}

// relay streams one upstream response to the client verbatim, flushing
// per chunk so NDJSON records reach the client as the replica emits
// them.
func (g *Gateway) relay(w http.ResponseWriter, resp *http.Response, rep *replica) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	for _, hh := range hopByHop {
		h.Del(hh)
	}
	h.Set("X-Gw-Replica", rep.name)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// CodeNoReplica is the gateway's one own error code: every replica was
// unreachable (or the whole fleet shed). Clients treat it like a shed —
// retryable, the fleet's condition, not the request's.
const CodeNoReplica = "no_replica"

// writeEnvelope mirrors the service's error envelope so gateway-origin
// failures are indistinguishable in shape from replica-origin ones.
func writeEnvelope(w http.ResponseWriter, status int, d service.ErrorDetail) {
	if status == http.StatusServiceUnavailable || status == http.StatusBadGateway {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(service.ErrorEnvelope{Error: d})
}
