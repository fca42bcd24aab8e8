package gateway

import (
	"encoding/json"
	"io"
	"sort"
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

// auditor stores records in a bounded ring and optionally streams them
// as JSON lines to a sink (gatewayd's -audit file).
type auditor struct {
	mu      sync.Mutex
	records []AuditRecord // conflint:guardedby mu (ring once full)
	next    int64         // conflint:guardedby mu (arrival counter)
	dropped int64         // conflint:guardedby mu (overwritten by the ring)
	head    int           // conflint:guardedby mu (ring start once wrapped)
	cap     int
	sink    io.Writer // conflint:guardedby mu
}

func newAuditor(capacity int, sink io.Writer) *auditor {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &auditor{cap: capacity, sink: sink, records: make([]AuditRecord, 0, capacity)}
}

// add appends one record, streaming it to the sink if configured.
func (a *auditor) add(rec AuditRecord) {
	a.mu.Lock()
	rec.arrival = a.next
	a.next++
	if len(a.records) < a.cap {
		a.records = append(a.records, rec)
	} else {
		a.records[a.head] = rec
		a.head = (a.head + 1) % a.cap
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

// snapshot copies the ring in arrival order.
func (a *auditor) snapshot() []AuditRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditRecord, 0, len(a.records))
	for i := 0; i < len(a.records); i++ {
		out = append(out, a.records[(a.head+i)%len(a.records)])
	}
	return out
}

// Records returns every retained audit record in arrival order.
func (g *Gateway) AuditRecords() []AuditRecord { return g.audit.snapshot() }

// AuditDumpTenant renders one tenant's audit log as JSON lines, ordered
// by client sequence number (arrival order as tiebreak). For a seeded
// schedule with unique sequence numbers the bytes are identical across
// runs and across any server/client parallelism.
func (g *Gateway) AuditDumpTenant(tenant string) []byte {
	recs := g.audit.snapshot()
	kept := recs[:0]
	for _, r := range recs {
		if r.Tenant == tenant {
			kept = append(kept, r)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].Seq != kept[j].Seq {
			return kept[i].Seq < kept[j].Seq
		}
		return kept[i].arrival < kept[j].arrival
	})
	var out []byte
	for i := range kept {
		data, err := json.Marshal(&kept[i])
		if err != nil {
			continue
		}
		out = append(out, data...)
		out = append(out, '\n')
	}
	return out
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
