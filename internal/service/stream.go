// The NDJSON streaming path of /v1/sweep. A client that sends
// Accept: application/x-ndjson gets one newline-delimited JSON record
// per grid cell, flushed in grid order as cells complete, followed by a
// trailing summary record — instead of one buffered JSON blob at the
// end. Memory stays bounded no matter the grid size: the fan-out's
// window keeps at most streamWindowSize cells in flight or completed-
// but-unemitted, and a cell's marshaled bytes are released as soon as
// they are flushed. Combined with the artifact cache's compile-phase
// keying (cells differing only in extrapolation parameters share one
// compiled train.Window), this is what makes 10k+-cell what-if grids
// practical over one request.
//
// Each cell record is byte-identical to the corresponding entry of the
// buffered response's results array (both serialize through
// marshalReport), so clients can switch modes without reparsing logic.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
)

// streamSpanCells caps how many cells of a streamed sweep record
// per-cell observability spans. The request trace is retained whole in
// the bounded trace store, so an unbounded grid must not grow it
// unboundedly; 64 cells of spans is plenty to diagnose a stream's shape.
const streamSpanCells = 64

// wantsNDJSON reports whether the request negotiated the streaming mode:
// any member of the Accept header with the application/x-ndjson media
// type and a nonzero quality weight. RFC 9110 §12.4.2 defines q=0 as
// "not acceptable" — a client sending application/x-ndjson;q=0 is
// explicitly declining the streaming representation, not requesting it.
// Buffered JSON stays the default for every other Accept value
// (including */*, which existing clients send implicitly).
func wantsNDJSON(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, member := range strings.Split(accept, ",") {
			mt, params, _ := strings.Cut(strings.TrimSpace(member), ";")
			if strings.TrimSpace(mt) == contentNDJSON && acceptQ(params) > 0 {
				return true
			}
		}
	}
	return false
}

// acceptQ extracts an Accept member's quality weight from its parameter
// list (everything after the media type's first ";"). Per RFC 9110
// §12.4.2 a qvalue runs 0 to 1 with at most three decimals and defaults
// to 1 when absent; a malformed or out-of-range value also falls back to
// 1 (lenient, like the rest of the header's parsing — only an explicit,
// well-formed q=0 declines).
func acceptQ(params string) float64 {
	for _, p := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || q < 0 || q > 1 {
			return 1
		}
		return q
	}
	return 1
}

// streamWindowSize is the reorder window: how many cells may be in
// flight or buffered awaiting in-order emission. Two cells per worker
// keeps every worker fed while the head-of-line cell is being flushed;
// the clamp bounds the window's memory on huge machines and keeps it
// useful on tiny ones.
func streamWindowSize(workers int) int {
	w := 2 * workers
	if w < 4 {
		w = 4
	}
	if w > 64 {
		w = 64
	}
	return w
}

// SweepSummaryBody is the payload of the stream's trailing summary
// record: how many cells were emitted, how many came from the result
// cache, and the stream's wall time. It replaces the buffered response's
// X-Cache-Hits/X-Sim-Duration headers, which a streaming response cannot
// carry (headers are committed before the first cell).
type SweepSummaryBody struct {
	Count     int   `json:"count"`
	CacheHits int   `json:"cacheHits"`
	WallNs    int64 `json:"wallNs"`
}

// SweepSummary is the trailing NDJSON record. The "summary" key
// distinguishes it from cell records (which carry "workload"); an
// "error" key (ErrorEnvelope) marks a stream that failed mid-flight.
type SweepSummary struct {
	SchemaVersion int              `json:"schemaVersion"`
	Summary       SweepSummaryBody `json:"summary"`
}

// streamSweep executes the validated sweep in streaming mode: the grid
// runs on the shared ordered fan-out (Each) with a window of
// streamWindowSize cells, all sharing one admitter, and each record is
// flushed in grid order as soon as its cell and every cell before it
// have completed. A failure before the first record
// surfaces as a normal HTTP error status (the overload taxonomy
// included); after that, the status is committed, so the stream ends
// with an in-band error record instead.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, req SweepRequest, size int) {
	tr := obs.FromContext(ctx)
	adm := &admitter{pool: s.pool}
	window := streamWindowSize(s.pool.Stats().Workers)
	// An error before the first record replaces this with its own.
	w.Header().Set("Content-Type", contentNDJSON)
	var (
		start      = time.Now()
		flusher, _ = w.(http.Flusher)
		count      int
		hits       int
	)
	failed := Each(ctx, size, window, window, func(ctx context.Context, i int) (cellResult, error) {
		if i >= streamSpanCells {
			// Spans past the cap record into a nil trace (every obs
			// method is nil-safe): the request trace must not grow O(grid).
			ctx = obs.WithTrace(ctx, nil)
		}
		label, wl := req.cell(i)
		val, how, err := s.resolveCell(ctx, label, wl.Normalize(), adm)
		return cellResult{val, how}, err
	}, func(_ int, c cellResult) error {
		// Two Writes, not append(c.val.body, '\n'): the record is the
		// shared cached response, and appending would write into its
		// backing array — racing other requests serving the same entry.
		w.Write(c.val.body)
		io.WriteString(w, "\n")
		if flusher != nil {
			flusher.Flush()
		}
		count++
		if c.how == memo.Hit {
			hits++
		}
		return nil
	})
	s.streams.Add(1)
	s.streamedCells.Add(uint64(count))
	if failed != nil {
		if count == 0 {
			// Nothing committed yet: a full HTTP error (429/503 sheds keep
			// their Retry-After) serves the client better than a 200 stream
			// holding only an error record.
			httpError(w, failed)
			return
		}
		_, d := classify(failed) // in-band: the 200 is already on the wire
		writeNDJSON(w, flusher, ErrorEnvelope{Error: d})
		return
	}
	endEncode := tr.StartSpan("encode")
	writeNDJSON(w, flusher, SweepSummary{
		SchemaVersion: SchemaVersion,
		Summary: SweepSummaryBody{
			Count:     count,
			CacheHits: hits,
			WallNs:    time.Since(start).Nanoseconds(),
		},
	})
	endEncode()
}

// writeNDJSON emits one NDJSON record and flushes it. A record that
// fails to marshal must not vanish silently — writeNDJSON carries the
// stream's summary and error records, and dropping one would end a 200
// stream with neither, leaving the client unable to tell a complete
// stream from a severed one. Instead the failure is logged and an
// in-band internal-error envelope takes the record's line, so the
// summary-or-error trailer invariant holds on every path.
func writeNDJSON(w http.ResponseWriter, flusher http.Flusher, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		log.Printf("service: NDJSON record %T failed to marshal: %v", v, err)
		b, _ = json.Marshal(ErrorEnvelope{Error: ErrorDetail{
			Code:    CodeInternal,
			Message: fmt.Sprintf("encode stream record: %v", err),
		}})
	}
	w.Write(b)
	io.WriteString(w, "\n")
	if flusher != nil {
		flusher.Flush()
	}
}
