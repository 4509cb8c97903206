// The structured error surface: every endpoint answers failures with one
// JSON envelope —
//
//	{"error": {"code": "...", "message": "...", "retryable": bool}}
//
// — instead of the ad-hoc bare-string body early versions wrote. The code
// is a stable machine-readable identifier (clients switch on it; the
// message text is for humans and may change), and retryable tells a
// client whether the same request can reasonably be sent again: true for
// the overload sheds (the server's condition — try later, Retry-After
// hints when), false for outcomes the deterministic simulator would
// reproduce (a bad workload, a workload that does not fit in device
// memory, a deadline the work itself exceeded).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/train"
)

// Stable error codes. These are API surface: a client that switches on
// them must keep working across releases, so codes are only ever added.
const (
	// CodeQueueFull: the admission queue was full; the request was shed
	// before any work started (429 + Retry-After).
	CodeQueueFull = "queue_full"
	// CodeDeadlineQueued: the request's deadline expired while it was
	// still waiting for a queue slot — the server was too loaded to even
	// start it (503 + Retry-After).
	CodeDeadlineQueued = "deadline_queued"
	// CodeDeadline: the deadline expired mid-work (504).
	CodeDeadline = "deadline"
	// CodeClientGone: the client disconnected before the response (499).
	CodeClientGone = "client_gone"
	// CodeBadRequest: malformed body or invalid workload (400).
	CodeBadRequest = "bad_request"
	// CodeInvalidArgument: a structurally valid request whose fields
	// contradict each other or the simulator's range — a DGX-1 fault
	// plan combined with non-DGX-1 hardware, or an epoch too large to
	// represent (400). Distinct from bad_request so clients building
	// hardware sweeps over faulted fleets can recognize and drop the
	// contradictory cells rather than treating them as client bugs.
	CodeInvalidArgument = "invalid_argument"
	// CodeBodyTooLarge: the request body exceeded the endpoint's cap (413).
	CodeBodyTooLarge = "body_too_large"
	// CodeSchemaVersion: the body declared a wire-format version this
	// server does not speak (400).
	CodeSchemaVersion = "schema_version"
	// CodeMethodNotAllowed: wrong HTTP method; Allow names the right one
	// (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no such resource — an unknown /v1/ path or an expired
	// trace id (404).
	CodeNotFound = "not_found"
	// CodeOutOfMemory: the workload does not fit in device memory — the
	// paper's Table IV memory wall, a deterministic property of the
	// request, so resending it cannot succeed (422).
	CodeOutOfMemory = "out_of_memory"
	// CodeInternal: an unexpected server-side failure (500).
	CodeInternal = "internal"
)

// ErrorDetail is the envelope's payload: a stable code, a human-readable
// message, and whether resending the same request can succeed.
type ErrorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// ErrorEnvelope is the error body every endpoint shares. On the NDJSON
// streaming path it doubles as the in-band terminal record of a stream
// that failed after the 200 header was committed.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// schemaVersionError marks a request that spoke a different wire format,
// so the envelope carries schema_version rather than plain bad_request —
// the one 400 a correct client can hit after an API upgrade, and the one
// it should not blindly re-send.
type schemaVersionError struct{ err error }

func (e schemaVersionError) Error() string { return e.err.Error() }
func (e schemaVersionError) Unwrap() error { return e.err }

// classify maps an error to its HTTP status and envelope payload — the
// one taxonomy behind every endpoint. Overload outcomes are distinguished
// from request outcomes: a full admission queue is 429 and a deadline
// that expired while still queueing is 503 (both retryable — the server's
// condition); a deadline that expired mid-work is 504 and a client that
// went away is 499 (the request's condition; the deterministic simulator
// would just hit the same wall again, so neither is retryable).
func classify(err error) (int, ErrorDetail) {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge,
			ErrorDetail{Code: CodeBodyTooLarge, Message: err.Error()}
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests,
			ErrorDetail{Code: CodeQueueFull, Message: err.Error(), Retryable: true}
	case isAdmission(err) && errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable,
			ErrorDetail{Code: CodeDeadlineQueued, Message: err.Error(), Retryable: true}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout,
			ErrorDetail{Code: CodeDeadline, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		// 499: client closed request (nginx convention).
		return 499, ErrorDetail{Code: CodeClientGone, Message: err.Error()}
	case errors.As(err, new(schemaVersionError)):
		return http.StatusBadRequest,
			ErrorDetail{Code: CodeSchemaVersion, Message: err.Error()}
	case errors.Is(err, faults.ErrHardwareMismatch), errors.Is(err, train.ErrEpochTooLarge):
		// Checked before the generic bad-request case: both are wrapped
		// in badRequestError on the decode path, and the more specific
		// code must win. An epoch too large to extrapolate is just as
		// much the request's property when the simulation finds it.
		return http.StatusBadRequest,
			ErrorDetail{Code: CodeInvalidArgument, Message: err.Error()}
	case errors.As(err, new(badRequestError)):
		return http.StatusBadRequest,
			ErrorDetail{Code: CodeBadRequest, Message: err.Error()}
	case errors.Is(err, gpu.ErrOutOfMemory):
		return http.StatusUnprocessableEntity,
			ErrorDetail{Code: CodeOutOfMemory, Message: err.Error()}
	}
	return http.StatusInternalServerError,
		ErrorDetail{Code: CodeInternal, Message: err.Error()}
}

// writeEnvelope writes one structured error response. Shed statuses carry
// the Retry-After hint; nothing else does.
func writeEnvelope(w http.ResponseWriter, status int, d ErrorDetail) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: d})
}

// httpError maps an error to its status and writes the shared envelope.
func httpError(w http.ResponseWriter, err error) {
	status, d := classify(err)
	writeEnvelope(w, status, d)
}

// notFound writes the envelope for a missing resource.
func notFound(w http.ResponseWriter, message string) {
	writeEnvelope(w, http.StatusNotFound, ErrorDetail{Code: CodeNotFound, Message: message})
}

// Allow wraps h so that a request with any other method gets the 405
// response HTTP semantics require: the Allow header naming the accepted
// methods, plus the envelope every endpoint shares. The gateway guards
// its own endpoints with it too. (An earlier version returned 400 "use
// POST", which blamed the client's syntax rather than the method and
// omitted Allow.)
func Allow(h http.HandlerFunc, methods ...string) http.HandlerFunc {
	allow := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		if slices.Contains(methods, r.Method) {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeEnvelope(w, http.StatusMethodNotAllowed, ErrorDetail{
			Code:    CodeMethodNotAllowed,
			Message: "method not allowed; use " + allow,
		})
	}
}
