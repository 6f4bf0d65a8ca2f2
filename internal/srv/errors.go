package srv

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Stable machine-readable error codes for non-admission failures. Admission
// rejections reuse their taxonomy codes (queue_full, shed,
// deadline_infeasible, deadline_queue, deadline_exceeded) as envelope codes,
// so a client switches on one field regardless of which layer rejected the
// request.
const (
	codeBadRequest       = "bad_request"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeInternal         = "internal"
)

// ErrorEnvelope is the uniform JSON error body every endpoint (and every
// unregistered path) returns: a stable machine-readable code, a
// human-readable message, and — on retryable rejections — the retry hint in
// milliseconds (the Retry-After header carries the same hint in whole
// seconds for standard HTTP clients).
type ErrorEnvelope struct {
	Code             string `json:"code"`
	Message          string `json:"message"`
	RetryAfterMillis int64  `json:"retry_after_ms,omitempty"`
}

// codeForStatus maps an HTTP status to its default envelope code; handlers
// that know better (admission, deadline) pass explicit codes instead.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return codeBadRequest
	case http.StatusNotFound:
		return codeNotFound
	case http.StatusMethodNotAllowed:
		return codeMethodNotAllowed
	default:
		return codeInternal
	}
}

// writeError renders the envelope with an explicit code and optional retry
// hint (retryAfter ≤ 0 omits both the header and the field).
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	env := ErrorEnvelope{Code: code, Message: msg}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		env.RetryAfterMillis = int64(retryAfter / time.Millisecond)
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env)
}

// httpError is writeError with the status's default code.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeError(w, status, codeForStatus(status), msg, 0)
}

// writeAdmitError renders a rejection: the taxonomy code rides in the
// envelope (clients and load harnesses classify on it) and retryable
// rejections carry the Retry-After hint.
func writeAdmitError(w http.ResponseWriter, rej *admitError) {
	writeError(w, rej.status, rej.code, rej.msg, rej.retryAfter)
}
