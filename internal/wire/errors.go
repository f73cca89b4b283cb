package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/qctx"
)

// Error codes: the engine's typed failure taxonomy, one byte each. The
// server maps any query error to a code with ErrorFrameFor; the client
// rebuilds an error that still satisfies errors.Is against the qctx
// sentinels — and errors.As against *qctx.OverloadError, so the
// retry-after hint survives the trip — with ErrorFrame.Err.
const (
	// CodeInternal covers everything untyped: parse errors, unknown
	// tables, planner failures, contained panics.
	CodeInternal byte = 0
	// CodeTimeout is qctx.ErrQueryTimeout (including queue-expired
	// deadlines rejected by admission).
	CodeTimeout byte = 1
	// CodeCanceled is qctx.ErrCanceled (client disconnect, drain).
	CodeCanceled byte = 2
	// CodeRowBudget and CodeMemoryBudget are the specific budget
	// violations; CodeBudget is the family for any other budget error.
	CodeRowBudget    byte = 3
	CodeMemoryBudget byte = 4
	CodeBudget       byte = 5
	// CodeOverloaded is an admission shed; the frame carries the
	// controller's retry-after hint.
	CodeOverloaded byte = 6

	// 7 is retired — it was a forced-parallel query refused by the
	// parallel circuit breaker, which is gone — and must not be reused: a
	// server from before the retirement still sends it, and the client
	// reads it as an untyped remote error.

	// CodeProtocol is a wire-level failure: a malformed frame, a bad
	// handshake, an unexpected frame type.
	CodeProtocol byte = 8
	// CodeSlowClient is a slow-consumer eviction: the client stalled the
	// server's bounded write buffer past the write deadline, so the server
	// cancelled its query (freeing the admission slot and pool lease) and
	// is about to close the connection. Sent best-effort — a fully wedged
	// pipe may not deliver it, in which case the client sees the close as
	// a connection loss or a torn (checksum-failing) frame instead.
	CodeSlowClient byte = 9
	// CodeInjectedFault and CodeSpillCorrupt are the two transient
	// families (qctx.Retryable): an error retryable in process stays
	// retryable for the client.
	CodeInjectedFault byte = 10
	CodeSpillCorrupt  byte = 11
)

// ErrSlowConsumer is what CodeSlowClient unwraps to on the client side: a
// typed sentinel for "the server evicted this connection for not reading
// fast enough".
var ErrSlowConsumer = errors.New("wire: consumer too slow, evicted")

// ErrorFrame is the payload of a FrameError.
type ErrorFrame struct {
	Code       byte
	RetryAfter time.Duration // only meaningful for CodeOverloaded
	Message    string
}

// ErrorFrameFor classifies err into the wire taxonomy. It must be called
// with a non-nil error.
func ErrorFrameFor(err error) ErrorFrame {
	f := ErrorFrame{Code: CodeInternal, Message: err.Error()}
	var ov *qctx.OverloadError
	switch {
	case errors.As(err, &ov):
		f.Code = CodeOverloaded
		f.RetryAfter = ov.RetryAfter
	case errors.Is(err, qctx.ErrQueryTimeout):
		f.Code = CodeTimeout
	case errors.Is(err, qctx.ErrCanceled):
		f.Code = CodeCanceled
	case errors.Is(err, qctx.ErrRowBudget):
		f.Code = CodeRowBudget
	case errors.Is(err, qctx.ErrMemoryBudget):
		f.Code = CodeMemoryBudget
	case errors.Is(err, qctx.ErrBudgetExceeded):
		f.Code = CodeBudget
	case errors.Is(err, qctx.ErrSpillCorrupt):
		f.Code = CodeSpillCorrupt
	case errors.Is(err, qctx.ErrInjectedFault):
		f.Code = CodeInjectedFault
	}
	return f
}

// RemoteError is what a client surfaces for a server-side failure: the
// message as the server rendered it, unwrapping to the matching typed
// error so callers branch with errors.Is/As exactly as they would against
// a local engine.
type RemoteError struct {
	Frame ErrorFrame
}

func (e *RemoteError) Error() string {
	return "remote: " + e.Frame.Message
}

// Unwrap maps the code back onto the qctx taxonomy. CodeOverloaded
// unwraps to a reconstructed *qctx.OverloadError (which itself unwraps to
// qctx.ErrOverloaded), keeping the retry-after hint reachable through
// errors.As.
func (e *RemoteError) Unwrap() error {
	switch e.Frame.Code {
	case CodeTimeout:
		return qctx.ErrQueryTimeout
	case CodeCanceled:
		return qctx.ErrCanceled
	case CodeRowBudget:
		return qctx.ErrRowBudget
	case CodeMemoryBudget:
		return qctx.ErrMemoryBudget
	case CodeBudget:
		return qctx.ErrBudgetExceeded
	case CodeOverloaded:
		return &qctx.OverloadError{Reason: "remote", RetryAfter: e.Frame.RetryAfter}
	case CodeSlowClient:
		return ErrSlowConsumer
	case CodeInjectedFault:
		return qctx.ErrInjectedFault
	case CodeSpillCorrupt:
		return qctx.ErrSpillCorrupt
	default:
		return nil
	}
}

// EncodeError builds an Error payload. Retry-after travels in
// nanoseconds so the codec is exact (the fuzz target checks stability).
func EncodeError(f ErrorFrame) []byte {
	p := []byte{f.Code}
	p = binary.AppendVarint(p, int64(f.RetryAfter))
	return append(p, f.Message...)
}

// DecodeError parses an Error payload.
func DecodeError(p []byte) (ErrorFrame, error) {
	var f ErrorFrame
	if len(p) < 1 {
		return f, fmt.Errorf("wire: empty error frame")
	}
	f.Code = p[0]
	nanos, rest, err := getVarint(p[1:], "retry-after")
	if err != nil {
		return f, err
	}
	f.RetryAfter = time.Duration(nanos)
	f.Message = string(rest)
	return f, nil
}
