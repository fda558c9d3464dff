// Package protocols implements the paper's CONGEST protocols on top of the
// congest simulator: Algorithm 2 (distributed elimination-tree construction,
// Lemma 5.1), canonical-bag propagation (Lemma 5.3), the bottom-up
// decision protocol, the bottom-up OPT / top-down extraction protocol and
// the COUNT protocol (Theorem 6.1 and Section 6), the optmarked
// verification, and a collect-at-root baseline used for comparison.
//
// All logical messages are carried over per-edge byte streams, so a k-bit
// message costs ceil(k/B) rounds on a B-bit edge, matching the paper's
// Θ(k/log n) accounting.
package protocols

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrProtocol is wrapped by protocol-level failures (malformed messages,
// inconsistent state).
var ErrProtocol = errors.New("protocols: protocol error")

// Message tags for the DP phases.
const (
	tagBag     = 1 // parent -> child: parent's bag and its induced edges
	tagBagPeer = 2 // neighbor -> neighbor: my bag (elimination verification)
	tagTable   = 3 // child -> parent: DP table
	tagVerdict = 4 // root -> down: decision/count result, doubles as finish
	tagTarget  = 5 // parent -> child: OPT target class key, then finish
)

type wireWriter struct{ buf []byte }

func (w *wireWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *wireWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) i64(v int64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *wireWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// str writes a string with the same framing as bytes, without forcing the
// caller to materialize a []byte copy first (interned class keys are
// strings; table serialization streams them straight onto the wire).
func (w *wireWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type wireReader struct{ buf []byte }

func (r *wireReader) u8() (uint8, error) {
	if len(r.buf) < 1 {
		return 0, fmt.Errorf("%w: truncated u8", ErrProtocol)
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, nil
}

func (r *wireReader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, fmt.Errorf("%w: truncated u32", ErrProtocol)
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v, nil
}

func (r *wireReader) i64() (int64, error) {
	if len(r.buf) < 8 {
		return 0, fmt.Errorf("%w: truncated i64", ErrProtocol)
	}
	v := int64(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v, nil
}

func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(r.buf)) < n {
		return nil, fmt.Errorf("%w: truncated bytes", ErrProtocol)
	}
	v := append([]byte(nil), r.buf[:n]...)
	r.buf = r.buf[n:]
	return v, nil
}

// bytesView is bytes without the defensive copy: the returned slice aliases
// the reader's buffer. Use it only when that buffer outlives every use of
// the view: a message popped from a ByteStreamReceiver is valid only until
// the stream's next Feed, so a view kept longer needs a reader over a copy
// (handleTable makes one).
func (r *wireReader) bytesView() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(r.buf)) < n {
		return nil, fmt.Errorf("%w: truncated bytes", ErrProtocol)
	}
	v := r.buf[:n:n]
	r.buf = r.buf[n:]
	return v, nil
}
