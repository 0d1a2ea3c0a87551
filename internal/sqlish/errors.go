package sqlish

import (
	"errors"
	"fmt"
	"strings"
)

// Error codes classify where in the statement pipeline an error arose;
// they are stable strings that travel over the wire protocol unchanged.
const (
	// ErrParse covers lexer and parser errors; these carry the 1-based
	// line and column of the offending token.
	ErrParse = "parse"
	// ErrAnalyze covers name resolution, typing and planning errors.
	ErrAnalyze = "analyze"
	// ErrExecute covers runtime errors (including cancellation).
	ErrExecute = "execute"
	// ErrRequest covers statement-use errors that are the caller's to
	// fix before execution starts: wrong parameter counts, streaming an
	// EXPLAIN, and the server's protocol-shape errors.
	ErrRequest = "request"
	// ErrCancelled reports a query aborted by context cancellation (a
	// disconnected client, an explicit cancel).
	ErrCancelled = "cancelled"
	// ErrTimeout reports a query aborted by a deadline: the server's
	// per-query timeout or the client context's.
	ErrTimeout = "timeout"
	// ErrResource reports a query aborted by its resource budget (max
	// rows / max bytes crossing operator boundaries).
	ErrResource = "resource"
	// ErrInternal reports a recovered executor panic: the query died,
	// the process did not.
	ErrInternal = "internal"
	// ErrUnavailable reports a server refusing new work — it is
	// draining for shutdown; clients should retry elsewhere or later.
	ErrUnavailable = "unavailable"
)

// requestError builds an ErrRequest error with no position.
func requestError(format string, args ...any) *Error {
	return &Error{Code: ErrRequest, Msg: fmt.Sprintf(format, args...), Pos: -1}
}

// analyzeError builds an ErrAnalyze error with no position.
func analyzeError(format string, args ...any) *Error {
	return &Error{Code: ErrAnalyze, Msg: fmt.Sprintf(format, args...), Pos: -1}
}

// Error is the pipeline's structured error: a stage code, a human-readable
// message, and — for parse errors — the statement position that caused it.
// The server renders it as the wire-level JSON error object
// {code, message, line, col}, so clients can point at the offending token
// instead of grepping a flat string.
type Error struct {
	// Code is one of the Err* constants.
	Code string
	// Msg is the message without the "sqlish: " prefix (Error adds it).
	Msg string
	// Pos is the byte offset into the statement text; -1 when unknown.
	Pos int
	// Line and Col are 1-based; 0 when unknown.
	Line, Col int
}

// Error implements the error interface, appending the position when known.
func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("sqlish: %s (line %d, col %d)", e.Msg, e.Line, e.Col)
	}
	return "sqlish: " + e.Msg
}

// newErrorAt builds a parse-stage error at a byte offset of src, filling
// in the 1-based line and column.
func newErrorAt(src string, pos int, format string, args ...any) *Error {
	line, col := LineCol(src, pos)
	return &Error{Code: ErrParse, Msg: fmt.Sprintf(format, args...), Pos: pos, Line: line, Col: col}
}

// LineCol converts a byte offset into 1-based line and column numbers
// (columns count bytes, which matches how editors address ASCII SQL).
func LineCol(src string, pos int) (line, col int) {
	if pos < 0 {
		return 0, 0
	}
	if pos > len(src) {
		pos = len(src)
	}
	line, col = 1, 1
	for i := 0; i < pos; i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// AsError classifies err as a structured *Error: an err that already is
// one (anywhere in its chain) is returned as-is, anything else is wrapped
// under the given default code with positions unknown.
func AsError(err error, defaultCode string) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	return &Error{
		Code: defaultCode,
		Msg:  strings.TrimPrefix(err.Error(), "sqlish: "),
		Pos:  -1,
	}
}
