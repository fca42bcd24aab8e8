package gateway

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Rejection reasons. Every request the gateway turns away carries
// exactly one of these in its audit record and JSON error body; the
// redflag suite pins each to its HTTP status. ReasonClientGone is the
// exception: an accepted query whose client left before it ran.
const (
	ReasonDraining     = "draining"             // 503: shutdown in progress
	ReasonNotReady     = "not-ready"            // 503: catalog still loading
	ReasonOversized    = "oversized-body"       // 413: body over max_body_bytes
	ReasonBadRequest   = "bad-request"          // 400: undecodable envelope
	ReasonBadAPIKey    = "bad-api-key"          // 401: unknown or missing key
	ReasonReadOnly     = "read-only"            // 403: statement is not a SELECT
	ReasonMalformedSQL = "malformed-sql"        // 400: SELECT fails to parse/analyze
	ReasonCapability   = "capability-violation" // 403: family or relation not granted
	ReasonQueueFull    = "queue-full"           // 429: tenant queue/concurrency saturated
	ReasonClientGone   = "client-gone"          // 499: client left while the query waited
)

// Decisions.
const (
	DecisionAccept = "accept"
	DecisionReject = "reject"
)

// AuditRecord is the structured trace of one request through the
// pipeline. Accepted queries are recorded once, at completion, with
// their simulated cost; rejections are recorded at the rejection point
// with the reason. Every field is deterministic for a fixed
// configuration — wall-clock lives in /metrics, never here — so a
// seeded client schedule reproduces per-tenant logs byte for byte.
type AuditRecord struct {
	// Seq is the client-assigned sequence number (-1 when the request
	// carried none). A seeded load generator assigns schedule positions,
	// which is what makes per-tenant dumps comparable across runs.
	Seq    int64  `json:"seq"`
	Tenant string `json:"tenant"` // "-" before authentication succeeded
	Family string `json:"family,omitempty"`

	Decision string `json:"decision"`
	Reason   string `json:"reason,omitempty"`
	Status   int    `json:"status"`

	// SQLHash fingerprints the query text (FNV-1a, hex); raw SQL stays
	// out of the log.
	SQLHash string `json:"sql_hash,omitempty"`

	SimSeconds float64 `json:"sim_seconds,omitempty"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Rows       int     `json:"rows,omitempty"`

	arrival int64 // monotonic arrival index; sort tiebreak, not serialized
}

// auditCap bounds the in-memory audit ring.
const auditCap = 1 << 16

// auditor stores records in a bounded ring and optionally streams them
// as JSON lines to a sink (gatewayd's -audit file).
type auditor struct {
	mu      sync.Mutex
	records []AuditRecord // conflint:guardedby mu (ring once full)
	next    int64         // conflint:guardedby mu (arrival counter)
	dropped int64         // conflint:guardedby mu (overwritten by the ring)
	head    int           // conflint:guardedby mu (ring start once wrapped)
	sink    io.Writer     // conflint:guardedby mu
}

func newAuditor(sink io.Writer) *auditor {
	return &auditor{sink: sink, records: make([]AuditRecord, 0, auditCap)}
}

// add appends one record, streaming it to the sink if configured.
func (a *auditor) add(rec AuditRecord) {
	a.mu.Lock()
	rec.arrival = a.next
	a.next++
	if len(a.records) < auditCap {
		a.records = append(a.records, rec)
	} else {
		a.records[a.head] = rec
		a.head = (a.head + 1) % auditCap
		a.dropped++
	}
	if a.sink != nil {
		if data, err := json.Marshal(rec); err == nil {
			// conflint:ignore best-effort audit stream; the in-memory ring is the queryable record and sink failures must not fail queries
			a.sink.Write(append(data, '\n'))
		}
	}
	a.mu.Unlock()
}

// hashSQL fingerprints a query text with FNV-1a.
func hashSQL(s string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return strconv.FormatUint(h, 16)
}
