// The machine-readable API index and the request contract: GET /v1/
// lists every endpoint, its methods, and the content types it can
// produce, so clients discover capabilities (the sweep NDJSON mode, the
// optimizer) instead of hard-coding them. The endpoint table below is
// the single source of truth for both. NewServer registers the mux from
// it and enforces each row's method, body cap and strict decoding before
// the handler runs; handleIndex serves it; Contract hands the same body
// cap and decoder to the gateway, so a proxy routes a body exactly as the
// replica will read it. An equivalence test holds the index and the mux
// together — an endpoint cannot be routed without being advertised, or
// advertised without being routed.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// Content types the API produces.
const (
	contentJSON   = "application/json"
	contentNDJSON = "application/x-ndjson"
	contentText   = "text/plain; charset=utf-8"
)

// Body caps. Workload, sweep and optimize descriptions are a few hundred
// bytes; 1 MiB leaves generous headroom while keeping a hostile client
// from streaming an unbounded body into the decoder. Explicit fleet
// traces are the one legitimately large request (a MaxJobs trace at ~100
// bytes per job approaches 10 MiB), so /v1/cluster/simulate has its own.
const (
	maxBodyBytes        = 1 << 20
	maxClusterBodyBytes = 16 << 20
)

// endpointDef is one endpoint's whole contract: its mux registration,
// its advertised description, and what a request must satisfy before the
// handler runs.
type endpointDef struct {
	// pattern is the mux registration pattern (a trailing slash makes it
	// a subtree, e.g. "/v1/trace/").
	pattern string
	// path is the advertised form ("/v1/trace/{id}" for the subtree).
	path string
	// methods the endpoint accepts; anything else is 405 + Allow.
	methods []string
	// contentTypes the endpoint can respond with. A client that wants a
	// non-default type (NDJSON sweeps) negotiates via Accept.
	contentTypes []string
	// maxBody caps the request body; reading past it is a 413.
	maxBody int64
	// decode strictly parses a body as the endpoint's request type (nil:
	// the endpoint reads no body).
	decode func(body []byte) (request, error)
	// serve implements the endpoint once the method is accepted and the
	// body capped (and, for POST endpoints, decoded).
	serve func(*Server, http.ResponseWriter, *http.Request)
}

// getEndpoint is a bodiless endpoint. Its cap is the default one, which
// only a proxy buffering the request ever reads against.
func getEndpoint(pattern, path string, contentTypes []string, h func(*Server, http.ResponseWriter, *http.Request)) endpointDef {
	return endpointDef{pattern, path, []string{http.MethodGet}, contentTypes, maxBodyBytes, nil, h}
}

// postEndpoint is an endpoint whose body decodes as T on every request:
// the row owns the decoding, and the handler receives the decoded
// request. noun names the body in decode errors ("decode <noun>: ...").
// Its requests carry slices (grids, search spaces, fleets), so only
// their routing key is memoized (see Contract), never the request.
func postEndpoint[T request](pattern, noun string, maxBody int64, contentTypes []string, h func(*Server, http.ResponseWriter, *http.Request, T)) endpointDef {
	return endpointDef{pattern, pattern, []string{http.MethodPost}, contentTypes, maxBody,
		func(body []byte) (request, error) { return decodeRequest[T](body, noun) },
		func(s *Server, w http.ResponseWriter, r *http.Request) {
			req, err := readBody(r, noun, func(body []byte) (T, error) { return decodeRequest[T](body, noun) })
			if err != nil {
				httpError(w, err)
				return
			}
			h(s, w, r, req)
		}}
}

// workloadEndpoint is an endpoint whose body is one workloadRequest,
// resolved through the body memo: a body seen before skips the decoder,
// Validate, Normalize and Fingerprint, and the handler receives the
// shared, immutable result.
func workloadEndpoint(pattern string, h func(*Server, http.ResponseWriter, *http.Request, *decoded)) endpointDef {
	e := endpointDef{pattern, pattern, []string{http.MethodPost}, []string{contentJSON}, maxBodyBytes,
		func(body []byte) (request, error) { return decodeRequest[workloadRequest](body, "workload") }, nil}
	e.serve = func(s *Server, w http.ResponseWriter, r *http.Request) {
		d, err := readBody(r, "workload", func(body []byte) (*decoded, error) { return bodies.resolve(e, body) })
		if err != nil {
			httpError(w, err)
			return
		}
		h(s, w, r, d)
	}
	return e
}

// apiEndpoints is the routing table. Order is the order GET /v1/ lists.
// Populated in init: handleIndex serves the table it is itself listed
// in, which a static initializer would reject as a cycle.
var apiEndpoints []endpointDef

func init() {
	jsonOnly, textOnly := []string{contentJSON}, []string{contentText}
	jsonOrNDJSON := []string{contentJSON, contentNDJSON}
	apiEndpoints = []endpointDef{
		getEndpoint("/v1/", "/v1/", jsonOnly, (*Server).handleIndex),
		workloadEndpoint("/v1/simulate", (*Server).handleSimulate),
		workloadEndpoint("/v1/compare", (*Server).handleCompare),
		postEndpoint("/v1/sweep", "sweep", maxBodyBytes, jsonOrNDJSON, (*Server).handleSweep),
		postEndpoint("/v1/optimize", "optimize", maxBodyBytes, jsonOnly, (*Server).handleOptimize),
		workloadEndpoint("/v1/validate", (*Server).handleValidate),
		postEndpoint("/v1/cluster/simulate", "cluster spec", maxClusterBodyBytes, jsonOnly, (*Server).handleClusterSimulate),
		getEndpoint("/v1/models", "/v1/models", jsonOnly, (*Server).handleModels),
		getEndpoint("/v1/hardware", "/v1/hardware", jsonOnly, (*Server).handleHardware),
		getEndpoint("/v1/trace/", "/v1/trace/{id}", jsonOnly, (*Server).handleTrace),
		getEndpoint("/healthz", "/healthz", textOnly, (*Server).handleHealthz),
		getEndpoint("/metrics", "/metrics", textOnly, (*Server).handleMetrics),
	}
}

// handler enforces the contract every endpoint shares, then serves. A
// subtree registered under its own advertised path ("/v1/") answers only
// that path: every other path below it is unrouted and gets a not_found
// envelope pointing back at the index, rather than the stdlib's bare
// text 404. The path is checked before the method, so POST /v1/nope is a
// 404, not the index's 405.
func (e endpointDef) handler(s *Server) http.HandlerFunc {
	serve := Allow(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, e.maxBody)
		e.serve(s, w, r)
	}, e.methods...)
	return func(w http.ResponseWriter, r *http.Request) {
		if e.path == e.pattern && r.URL.Path != e.path {
			notFound(w, fmt.Sprintf("no endpoint %q (GET /v1/ lists the API)", r.URL.Path))
			return
		}
		serve(w, r)
	}
}

// request is the wire type of a POST body.
type request interface {
	// version is the schemaVersion the body declared (0: current).
	version() int
	// routed is the workload a proxy routes the body by — the request's
	// own, or its grid's base — or nil when the body carries none.
	routed() *core.Workload
}

// readBody reads a whole request body under the cap handler installed
// and parses it, spanned as the request's decode. A body past the cap
// fails here, as a 413, before parse — and so before any memo lookup.
func readBody[V any](r *http.Request, noun string, parse func(body []byte) (V, error)) (V, error) {
	defer obs.FromContext(r.Context()).StartSpan("decode")()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var zero V
		return zero, badRequestError{fmt.Errorf("decode %s: %w", noun, err)}
	}
	return parse(body)
}

// decodeRequest is the one strict body decoder: a single JSON value of
// type T with no unknown fields and nothing after it but whitespace, in
// a wire format this server speaks. Every failure is a 400 (bad_request,
// or schema_version for a foreign version).
func decodeRequest[T request](body []byte, noun string) (T, error) {
	var req T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil || errors.As(err, new(*json.SyntaxError)) {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if err != nil {
		return req, badRequestError{fmt.Errorf("decode %s: %w", noun, err)}
	}
	if v := req.version(); v != 0 && v != SchemaVersion {
		return req, schemaVersionError{fmt.Errorf("unsupported schemaVersion %d (this server speaks %d)", v, SchemaVersion)}
	}
	return req, nil
}

// Contract is the request contract of path as a proxy in front of the
// replicas sees it, read from the endpoint table: the body cap the
// replica enforces there, and the affinity key of a body posted there.
// The key is the fingerprint of the workload the replica's own strict
// decoder finds in the body (the request's workload, or a grid's base),
// so a repeated question lands on the replica whose cache holds it and
// spelled-out defaults route like omitted ones. A body that does not
// decode, or carries no workload, routes by a hash of its bytes — the
// replica owns its 400 — and an empty one by its path. Keys come
// through the body memo, so a repeated body is routed without decoding.
func Contract(path string) (maxBody int64, key func(body []byte) string) {
	e := endpointDef{maxBody: maxBodyBytes}
	if i := slices.IndexFunc(apiEndpoints, func(e endpointDef) bool { return e.pattern == path }); i >= 0 {
		e = apiEndpoints[i]
	}
	return e.maxBody, func(body []byte) string {
		if e.decode != nil {
			if d, err := bodies.resolve(e, body); err == nil {
				return d.key
			}
		}
		if len(body) == 0 {
			return path
		}
		return bytesKey(body)
	}
}

// bytesKey routes a body by a hash of its bytes.
func bytesKey(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// metricsLabel is the per-endpoint label the metrics and access logs key
// on: the pattern with any subtree slash trimmed ("/v1/trace/" observes
// as "/v1/trace", matching the label from before subtrees existed).
func metricsLabel(pattern string) string {
	if len(pattern) > 1 && strings.HasSuffix(pattern, "/") {
		return strings.TrimSuffix(pattern, "/")
	}
	return pattern
}

// EndpointInfo is one advertised endpoint of the IndexResponse.
type EndpointInfo struct {
	Path         string   `json:"path"`
	Methods      []string `json:"methods"`
	ContentTypes []string `json:"contentTypes"`
}

// IndexResponse is the GET /v1/ body: the wire-format version this
// server speaks and every endpoint it routes.
type IndexResponse struct {
	SchemaVersion int            `json:"schemaVersion"`
	Endpoints     []EndpointInfo `json:"endpoints"`
}

// apiIndex renders the endpoint table as the advertised index.
func apiIndex() IndexResponse {
	out := IndexResponse{SchemaVersion: SchemaVersion}
	for _, e := range apiEndpoints {
		out.Endpoints = append(out.Endpoints, EndpointInfo{
			Path:         e.path,
			Methods:      e.methods,
			ContentTypes: e.contentTypes,
		})
	}
	return out
}

// handleIndex serves the API index.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, apiIndex())
}
