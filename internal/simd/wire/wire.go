// Package wire defines the simd daemon's wire protocol: length-prefixed
// JSON frames carrying a small request/response vocabulary. A frame is a
// 4-byte big-endian payload length followed by one JSON document; the
// encoding is symmetric, so clients and the server share ReadFrame and
// WriteFrame. The three hot bodies inside a frame, a plan's scenario
// list (Request.Scenarios of OpPlan), a stored result (Request.Value of
// OpRecord, Response.Value of an OpLookup reply) and a scenario outcome
// (Response.Outcome), are sealed binary payloads: a JSON string holding
// the base64 of a layout from internal/payload, so every frame stays
// one JSON document. The envelopes around them are coded without
// reflection (codec.go), into the bytes encoding/json gives them.
//
// Two request families flow over one connection:
//
//   - plan submission (OpPlan): the client sends a serialized scenario
//     list; the server streams one KindResult frame per scenario in
//     completion order — each with completed-of-total progress and
//     per-scenario error isolation, mirroring Session.Run — and closes
//     the exchange with a KindDone frame. OpCancel aborts a named
//     in-flight plan.
//   - store service (OpLookup..OpStats, OpFlush): synchronous key-value
//     round trips against the daemon's shared runner.Store, answered by
//     a single KindReply frame. runner.NetStore is built on these.
//
// Requests and responses are correlated by a client-assigned ID, so one
// connection multiplexes concurrent plans and store calls. Every request
// carries ProtocolVersion; the server rejects mismatches per request
// with a KindError frame instead of dropping the connection, so a stale
// client gets a diagnosable error. Bump ProtocolVersion whenever a
// message field changes meaning, is removed, or a new op alters existing
// exchange semantics (see CONTRIBUTING.md).
package wire

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"resizecache/internal/sim"
)

// ProtocolVersion tags every request; see the package comment for the
// bump policy.
// Version history: 1 = initial op set; 2 = OpPing health check (and the
// reconnecting client that relies on it); 3 = plan scenarios lost the
// deprecated per-L1 resize booleans, which a v2 client could still send
// and a v3 server would silently drop (Sides is the only spelling); 4 =
// stored results and outcomes travel as sealed binary payloads instead
// of JSON documents (runner.StoredResult and resizecache.Outcome
// MarshalBinary); 5 = plan scenarios travel as a sealed binary payload
// (resizecache.MarshalScenarios) instead of a JSON array.
const ProtocolVersion = 5

// MaxFrame bounds a single frame's payload. Plans serialize to a few
// bytes per scenario and results to a few KB, so 64 MiB is far above any
// legitimate frame while still rejecting a corrupt length prefix before
// it turns into an allocation.
const MaxFrame = 64 << 20

// Request operations.
const (
	// OpPlan submits a serialized scenario list; answered by a stream of
	// KindResult frames and a final KindDone.
	OpPlan = "plan"
	// OpCancel aborts the in-flight plan whose request ID is Target.
	// Fire-and-forget: it is never answered (the cancelled plan's own
	// stream terminates instead).
	OpCancel = "cancel"
	// OpLookup / OpRecord are runner.Store result operations; Value
	// carries a sealed runner.StoredResult payload.
	OpLookup = "lookup"
	OpRecord = "record"
	// OpLookupArtifact / OpRecordArtifact are the artifact analogues;
	// Value carries the opaque artifact payload (valid JSON).
	OpLookupArtifact = "lookup-artifact"
	OpRecordArtifact = "record-artifact"
	// OpFlush persists the daemon's backing store.
	OpFlush = "flush"
	// OpStats returns the daemon's cumulative runner.Stats as JSON.
	OpStats = "stats"
	// OpPing is the health check: answered by an empty KindReply. The
	// reconnecting client uses it to validate a connection before
	// trusting it after failover, and any received frame (ping included)
	// resets the server's idle-timeout clock, so a long-lived idle
	// client pings to keep its connection alive.
	OpPing = "ping"
)

// Response kinds.
const (
	// KindResult is one scenario's outcome within a plan stream.
	KindResult = "result"
	// KindDone terminates a plan stream: every result frame has been
	// sent.
	KindDone = "done"
	// KindReply answers a synchronous store/stats/flush request.
	KindReply = "reply"
	// KindError terminates any exchange with a request-level failure
	// (malformed payload, version mismatch, unknown op).
	KindError = "error"
)

// Request is one client-to-server frame.
type Request struct {
	// V is the client's ProtocolVersion; checked per request.
	V int `json:"v"`
	// ID correlates the responses to this request. The client must not
	// reuse an ID while its exchange is live. ID 0 is reserved for
	// fire-and-forget requests (OpCancel).
	ID uint64 `json:"id,omitempty"`
	// Op selects the operation.
	Op string `json:"op"`
	// Scenarios is an OpPlan's scenario list as a sealed binary
	// payload (resizecache.MarshalScenarios).
	Scenarios json.RawMessage `json:"scenarios,omitempty"`
	// Target is the plan request ID an OpCancel aborts.
	Target uint64 `json:"target,omitempty"`
	// Key is the hex sim.Key of a store operation.
	Key string `json:"key,omitempty"`
	// Value is the store operation's payload: an OpRecord's sealed
	// binary runner.StoredResult (its MarshalBinary), or an
	// OpRecordArtifact's artifact bytes (valid JSON).
	Value json.RawMessage `json:"value,omitempty"`
}

// Response is one server-to-client frame.
type Response struct {
	// ID echoes the request this frame answers.
	ID uint64 `json:"id"`
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// Index / Outcome / Err / Completed / Total populate KindResult
	// frames: the scenario's plan-order index, its outcome as a sealed
	// binary payload (resizecache.Outcome's MarshalBinary; absent when
	// the scenario failed) or its isolated error, and the stream's
	// completed-of-total progress. Err on a KindError frame carries the
	// request-level failure.
	Index     int             `json:"index,omitempty"`
	Outcome   json.RawMessage `json:"outcome,omitempty"`
	Err       string          `json:"err,omitempty"`
	Completed int             `json:"completed,omitempty"`
	Total     int             `json:"total,omitempty"`
	// Found / Value populate KindReply frames for lookups: an OpLookup
	// hit's Value is a sealed binary runner.StoredResult, an
	// OpLookupArtifact hit's the artifact bytes.
	Found bool            `json:"found,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`
}

// WriteFrame encodes v and writes it as one length-prefixed frame, in
// one Write. A Request or Response (or a pointer to one) is encoded by
// the envelope codec (codec.go) into json.Marshal's bytes; any other
// value by json.Marshal. Callers serialize concurrent writers
// themselves (a frame must not interleave with another).
func WriteFrame(w io.Writer, v any) error {
	bp := frames.Get().(*[]byte)
	defer putFrame(bp)
	buf, err := appendFrame((*bp)[:0], v)
	*bp = buf
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// frames holds WriteFrame's buffers; putFrame keeps none past
// exactFrame, so one large frame does not pin its buffer.
var frames = sync.Pool{New: func() any { return new([]byte) }}

func putFrame(bp *[]byte) {
	if cap(*bp) <= exactFrame {
		frames.Put(bp)
	}
}

// appendFrame appends v's frame, length prefix and body, to buf.
func appendFrame(buf []byte, v any) ([]byte, error) {
	buf = append(buf, 0, 0, 0, 0)
	var ok bool
	switch v := v.(type) {
	case Request:
		buf, ok = appendRequest(buf, &v)
	case *Request:
		buf, ok = appendRequest(buf, v)
	case Response:
		buf, ok = appendResponse(buf, &v)
	case *Response:
		buf, ok = appendResponse(buf, v)
	}
	if !ok {
		body, err := json.Marshal(v)
		if err != nil {
			return buf[:0], fmt.Errorf("wire: encode frame: %w", err)
		}
		buf = append(buf[:4], body...)
	}
	n := len(buf) - 4
	if n > MaxFrame {
		return buf[:0], fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte bound", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	return buf, nil
}

// exactFrame is the largest body ReadFrame allocates up front at its
// declared size, and the largest buffer WriteFrame keeps for reuse;
// every ordinary frame fits.
const exactFrame = 64 << 10

// ReadFrame reads one length-prefixed frame and decodes it into v: a
// *Request or *Response in the envelope codec's canonical form by its
// parser, whose raw fields share the frame's bytes, and anything else
// by json.Unmarshal. io.EOF means the peer hung up cleanly between
// frames; a frame cut short, header or body, is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, v any) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return err
	}
	size := binary.BigEndian.Uint32(prefix[:])
	if size > MaxFrame {
		return fmt.Errorf("wire: frame length %d exceeds the %d-byte bound", size, MaxFrame)
	}
	// The length is the peer's claim: past exactFrame the body grows by
	// doubling as bytes arrive, so a header promising MaxFrame and then
	// stalling pins exactFrame or twice what was actually sent.
	n := int(size)
	body := make([]byte, min(n, exactFrame))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		got += m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		if got == n {
			break
		}
		body = append(body, make([]byte, min(n-got, got))...)
	}
	switch v := v.(type) {
	case *Request:
		if parseRequest(body, v) {
			return nil
		}
	case *Response:
		if parseResponse(body, v) {
			return nil
		}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("wire: decode frame: %w", err)
	}
	return nil
}

// ParseKey decodes the hex form produced by sim.Key.String — the wire
// spelling of every store key.
func ParseKey(s string) (sim.Key, error) {
	var k sim.Key
	var src [2 * len(k)]byte
	if len(s) != len(src) {
		return sim.Key{}, fmt.Errorf("wire: parse key %q: %d hex digits, want %d", s, len(s), len(src))
	}
	copy(src[:], s)
	if _, err := hex.Decode(k[:], src[:]); err != nil {
		return sim.Key{}, fmt.Errorf("wire: parse key %q: %w", s, err)
	}
	return k, nil
}
