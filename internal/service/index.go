// The machine-readable API index: GET /v1/ lists every endpoint, its
// methods, and the content types it can produce, so clients discover
// capabilities (the sweep NDJSON mode, the optimizer) instead of
// hard-coding them. The endpoint table below is the single source of
// truth: NewServer registers the mux from it, handleIndex serves it, and
// an equivalence test holds the two views together — an endpoint cannot
// be routed without being advertised, or advertised without being routed.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Content types the API produces.
const (
	contentJSON   = "application/json"
	contentNDJSON = "application/x-ndjson"
	contentText   = "text/plain; charset=utf-8"
)

// endpointDef binds one mux registration to its advertised description.
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
	// handler is the method implementing the endpoint.
	handler func(*Server, http.ResponseWriter, *http.Request)
}

// apiEndpoints is the routing table. Order is the order GET /v1/ lists.
// Populated in init: handleIndex serves the table it is itself listed
// in, which a static initializer would reject as a cycle.
var apiEndpoints []endpointDef

func init() {
	apiEndpoints = []endpointDef{
		{"/v1/", "/v1/", []string{http.MethodGet}, []string{contentJSON}, (*Server).handleIndex},
		{"/v1/simulate", "/v1/simulate", []string{http.MethodPost}, []string{contentJSON}, (*Server).handleSimulate},
		{"/v1/compare", "/v1/compare", []string{http.MethodPost}, []string{contentJSON}, (*Server).handleCompare},
		{"/v1/sweep", "/v1/sweep", []string{http.MethodPost}, []string{contentJSON, contentNDJSON}, (*Server).handleSweep},
		{"/v1/optimize", "/v1/optimize", []string{http.MethodPost}, []string{contentJSON}, (*Server).handleOptimize},
		{"/v1/validate", "/v1/validate", []string{http.MethodPost}, []string{contentJSON}, (*Server).handleValidate},
		{"/v1/cluster/simulate", "/v1/cluster/simulate", []string{http.MethodPost}, []string{contentJSON}, (*Server).handleClusterSimulate},
		{"/v1/models", "/v1/models", []string{http.MethodGet}, []string{contentJSON}, (*Server).handleModels},
		{"/v1/hardware", "/v1/hardware", []string{http.MethodGet}, []string{contentJSON}, (*Server).handleHardware},
		{"/v1/trace/", "/v1/trace/{id}", []string{http.MethodGet}, []string{contentJSON}, (*Server).handleTrace},
		{"/healthz", "/healthz", []string{http.MethodGet}, []string{contentText}, (*Server).handleHealthz},
		{"/metrics", "/metrics", []string{http.MethodGet}, []string{contentText}, (*Server).handleMetrics},
	}
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

// handleIndex serves the API index. Its "/v1/" pattern is a subtree
// root, so it also answers every unrouted /v1/* path — with a not_found
// envelope pointing back at the index, rather than the stdlib's bare
// text 404.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/" {
		notFound(w, fmt.Sprintf("no endpoint %q (GET /v1/ lists the API)", r.URL.Path))
		return
	}
	if r.Method != http.MethodGet {
		MethodNotAllowed(w, http.MethodGet)
		return
	}
	b, err := json.Marshal(apiIndex())
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSONBytes(w, b)
}
