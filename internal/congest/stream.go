package congest

import "encoding/binary"

// ByteStreamSender turns logical messages of arbitrary size into a sequence
// of frames that each fit the per-edge per-round bandwidth. Sending a k-bit
// logical message therefore costs ceil(k/B) rounds on an edge with B-bit
// bandwidth, exactly the Θ(k/log n) accounting of the paper.
//
// The sender keeps one backing array and a read offset into it: a drained
// sender rewinds to the start of the array, and a Push that would outgrow
// it first moves the unsent bytes to the front. Its capacity therefore
// stays bounded by the largest backlog, and a steady stream of pushes and
// frames allocates nothing.
//
// The zero value is ready to use.
type ByteStreamSender struct {
	buf []byte
	off int // buf[off:] is queued, not yet framed
}

// Push enqueues a logical message (length-prefixed on the wire). It
// invalidates every frame NextFrame returned before it.
func (s *ByteStreamSender) Push(msg []byte) {
	s.buf = reserve(s.buf, &s.off, 4+len(msg))
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(len(msg)))
	s.buf = append(s.buf, msg...)
}

// NextFrame pops the next frame of at most budgetBytes bytes, or ok=false
// when nothing is pending. The frame aliases the sender's buffer rather
// than copying, and stays valid until the sender's next Push, which may
// rewrite those bytes. That is long enough: the engine copies every frame
// a node returns into its delivery arena in the same pool task that ran
// the node's Round, before the node can push again. A caller that keeps a
// frame across a Push must copy it.
func (s *ByteStreamSender) NextFrame(budgetBytes int) (Message, bool) {
	rest := len(s.buf) - s.off
	if rest == 0 {
		return nil, false
	}
	n := budgetBytes
	if n < 1 {
		n = 1
	}
	if n > rest {
		n = rest
	}
	frame := Message(s.buf[s.off : s.off+n : s.off+n])
	s.off += n
	if s.off == len(s.buf) {
		s.buf, s.off = s.buf[:0], 0
	}
	return frame, true
}

// Pending reports whether bytes remain queued.
func (s *ByteStreamSender) Pending() bool { return s.off < len(s.buf) }

// Release drops the backing array when nothing is queued, so the next Push
// allocates afresh. Keeping the array is what makes a steady stream of small
// messages allocation-free; a stream that carries a few large one-off
// messages should release it instead of holding its largest backlog for
// the rest of the run. Frames returned earlier stay valid.
func (s *ByteStreamSender) Release() {
	if !s.Pending() {
		s.buf, s.off = nil, 0
	}
}

// ByteStreamReceiver reassembles logical messages from in-order frames. Like
// the sender, it keeps one backing array and a read offset, rewinding once
// drained.
//
// The zero value is ready to use.
type ByteStreamReceiver struct {
	buf []byte
	off int // buf[off:] is received, not yet popped
}

// Feed appends a received frame (copying it: the inbox payload is only
// valid during the Round call that receives it). It invalidates every
// message Pop returned before it.
func (r *ByteStreamReceiver) Feed(frame Message) {
	r.buf = reserve(r.buf, &r.off, len(frame))
	r.buf = append(r.buf, frame...)
}

// Pop extracts the next complete logical message, or ok=false if none is
// complete yet. The message aliases the receiver's buffer and stays valid
// until the next Feed; a caller that keeps its bytes longer must copy them.
func (r *ByteStreamReceiver) Pop() ([]byte, bool) {
	rest := r.buf[r.off:]
	if len(rest) < 4 {
		return nil, false
	}
	end := 4 + int(binary.LittleEndian.Uint32(rest))
	if len(rest) < end {
		return nil, false
	}
	msg := rest[4:end:end]
	r.off += end
	if r.off == len(r.buf) {
		r.buf, r.off = r.buf[:0], 0
	}
	return msg, true
}

// Release drops the backing array when no bytes are buffered, the
// receiving counterpart of ByteStreamSender.Release. Messages returned by
// Pop earlier stay valid.
func (r *ByteStreamReceiver) Release() {
	if r.off == len(r.buf) {
		r.buf, r.off = nil, 0
	}
}

// reserve makes room for extra more bytes at the end of buf, whose unread
// part starts at *off: when the bytes would not fit the backing array, it
// first moves the unread part to the front and resets *off, so the array
// only grows when the unread backlog itself outgrows it.
func reserve(buf []byte, off *int, extra int) []byte {
	if *off > 0 && len(buf)+extra > cap(buf) {
		buf = buf[:copy(buf, buf[*off:])]
		*off = 0
	}
	return buf
}

// FrameBudgetBytes converts a bandwidth in bits to a frame budget in whole
// bytes (at least 1).
func FrameBudgetBytes(bandwidthBits int) int {
	b := bandwidthBits / 8
	if b < 1 {
		b = 1
	}
	return b
}
