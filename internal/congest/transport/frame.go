// Package transport is the process-boundary seam of the CONGEST engine: a
// length-prefixed binary frame protocol that carries the multi-process
// round barrier (handshake, per-round message batches, deterministic
// delivery, reports) over any byte stream — a Unix socket, a TCP
// connection, or the in-memory loopback pair used by tests.
//
// The codec is deliberately dumb: fixed 12-byte header, little-endian
// integers, length-prefixed byte strings — the same wire grammar the
// protocol layer already uses for its DP tables (protocols.wireWriter).
// Every decoder is a pure function over a byte slice with explicit bounds
// checks; hostile input yields a typed error (wrapping ErrFrame), never a
// panic, an over-read, or an unbounded allocation.
//
// Frame grammar (all integers little-endian):
//
//	frame   := magic "DF" | version u8 | type u8 | round u32 | len u32 | payload[len]
//	hello   := proto u32 | shard u32
//	config  := shards u32 | shardSize u32 | digest bytes32 | spec bytes | graph bytes
//	ready   := digest bytes32
//	step    := ε                     (round rides in the header)
//	msg     := from u32 | to u32 | port u32 | seq u32 | kind str | payload bytes
//	batch   := errKind u8 | errVertex u32 | errText str | nsub u32 | { n u32 | msg×n }×nsub
//	deliver := nd u32 | msg×nd | n u32 | msg×n
//	report  := messages i64 | bits i64 | maxMsgBits u32 | lost i64 |
//	           nhalt u32 | u32×nhalt | nev u32 | event×nev
//	event   := from u32 | seq u32 | to u32 | port u32 | bits u32 | kind str
//	outputs := data bytes
//	abort   := text str
//	finish  := ε
//	bytes   := len u32 | byte×len          str := bytes
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the frame-protocol version byte. A coordinator and a worker
// must agree on it exactly; there is no negotiation.
const Version = 1

// HeaderSize is the fixed size of an encoded frame header.
const HeaderSize = 12

// DigestSize is the size of the handshake digest (SHA-256).
const DigestSize = 32

// Frame types.
const (
	TypeHello   = 1  // worker -> coordinator: protocol version + shard index
	TypeConfig  = 2  // coordinator -> worker: topology, spec, graph, digest
	TypeReady   = 3  // worker -> coordinator: digest echo
	TypeStep    = 4  // coordinator -> worker: run the round in the header
	TypeBatch   = 5  // worker -> coordinator: validated outgoing messages
	TypeDeliver = 6  // coordinator -> worker: merged incoming messages
	TypeReport  = 7  // worker -> coordinator: delivery counters, halts, events
	TypeFinish  = 8  // coordinator -> worker: all nodes halted, send outputs
	TypeOutputs = 9  // worker -> coordinator: per-vertex protocol outputs
	TypeAbort   = 10 // either direction: the session is over, with a reason
)

const maxType = TypeAbort

// Typed decode errors. Every failure wraps ErrFrame, so callers can match
// the family with errors.Is(err, ErrFrame) or the precise cause with the
// specific sentinel.
var (
	// ErrFrame is the base error of every frame/payload decode failure.
	ErrFrame = errors.New("transport: bad frame")
	// ErrBadMagic marks a header that does not start with "DF".
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrFrame)
	// ErrBadVersion marks a frame from a different protocol version.
	ErrBadVersion = fmt.Errorf("%w: version mismatch", ErrFrame)
	// ErrBadType marks an unknown frame type byte.
	ErrBadType = fmt.Errorf("%w: unknown frame type", ErrFrame)
	// ErrTruncated marks input shorter than its own length fields claim.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrFrame)
	// ErrOversize marks a length field exceeding the reader's frame budget
	// (or, in pure decoding, the bytes actually present).
	ErrOversize = fmt.Errorf("%w: oversized length", ErrFrame)
	// ErrTrailing marks leftover bytes after a complete frame or payload.
	ErrTrailing = fmt.Errorf("%w: trailing bytes", ErrFrame)
	// ErrBadDigest marks a handshake digest of the wrong size.
	ErrBadDigest = fmt.Errorf("%w: digest must be %d bytes", ErrFrame, DigestSize)
)

var magic = [2]byte{'D', 'F'}

// Frame is one unit on the wire: a type, the round it belongs to (0 for
// handshake/teardown frames), and an opaque payload.
type Frame struct {
	Type    uint8
	Round   uint32
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, magic[0], magic[1], Version, f.Type)
	dst = binary.LittleEndian.AppendUint32(dst, f.Round)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	return append(dst, f.Payload...)
}

// EncodeFrame encodes the frame as a fresh byte slice.
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, f) }

// DecodeFrame decodes exactly one frame from b. The whole input must be
// consumed: trailing bytes are an error, so a frame boundary can never be
// silently misplaced. The returned payload aliases b.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) < HeaderSize {
		return Frame{}, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(b), HeaderSize)
	}
	if b[0] != magic[0] || b[1] != magic[1] {
		return Frame{}, ErrBadMagic
	}
	if b[2] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, b[2], Version)
	}
	t := b[3]
	if t < TypeHello || t > maxType {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadType, t)
	}
	round := binary.LittleEndian.Uint32(b[4:8])
	plen := binary.LittleEndian.Uint32(b[8:12])
	rest := b[HeaderSize:]
	if uint64(plen) > uint64(len(rest)) {
		return Frame{}, fmt.Errorf("%w: payload length %d, %d bytes present", ErrOversize, plen, len(rest))
	}
	if int(plen) != len(rest) {
		return Frame{}, fmt.Errorf("%w: %d after payload", ErrTrailing, len(rest)-int(plen))
	}
	return Frame{Type: t, Round: round, Payload: rest[:plen:plen]}, nil
}

// dec is the bounds-checked payload cursor. Unlike DecodeFrame it never
// aliases hostile input into long-lived structures without a copy decision
// made per field.
type dec struct{ b []byte }

func (d *dec) u8() (uint8, error) {
	if len(d.b) < 1 {
		return 0, fmt.Errorf("%w: u8", ErrTruncated)
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *dec) u32() (uint32, error) {
	if len(d.b) < 4 {
		return 0, fmt.Errorf("%w: u32", ErrTruncated)
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v, nil
}

func (d *dec) i64() (int64, error) {
	if len(d.b) < 8 {
		return 0, fmt.Errorf("%w: i64", ErrTruncated)
	}
	v := int64(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v, nil
}

func (d *dec) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(d.b)) {
		return nil, fmt.Errorf("%w: %d-byte field, %d present", ErrOversize, n, len(d.b))
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if uint64(n) > uint64(len(d.b)) {
		return "", fmt.Errorf("%w: %d-byte string, %d present", ErrOversize, n, len(d.b))
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v, nil
}

// count reads a u32 element count and rejects counts that could not possibly
// fit in the remaining bytes (each element occupies at least minSize bytes),
// so a hostile count never drives an unbounded allocation.
func (d *dec) count(minSize int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(minSize) > uint64(len(d.b)) {
		return 0, fmt.Errorf("%w: count %d × %d bytes, %d present", ErrOversize, n, minSize, len(d.b))
	}
	return int(n), nil
}

func (d *dec) done() error {
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d after payload body", ErrTrailing, len(d.b))
	}
	return nil
}

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Hello is the worker's first frame: its protocol version and shard index.
type Hello struct {
	Proto uint32
	Shard uint32
}

// Encode serializes the payload.
func (h Hello) Encode() []byte {
	var e enc
	e.u32(h.Proto)
	e.u32(h.Shard)
	return e.b
}

// DecodeHello parses a TypeHello payload.
func DecodeHello(b []byte) (Hello, error) {
	d := dec{b}
	var h Hello
	var err error
	if h.Proto, err = d.u32(); err != nil {
		return h, err
	}
	if h.Shard, err = d.u32(); err != nil {
		return h, err
	}
	return h, d.done()
}

// Config is the coordinator's handshake frame: shard topology, the opaque
// run spec (JSON at the session layer), the graph serialized in edge-list
// text, and the SHA-256 digest binding spec and graph together.
type Config struct {
	Shards    uint32
	ShardSize uint32
	Digest    [DigestSize]byte
	Spec      []byte
	Graph     []byte
}

// Encode serializes the payload.
func (c Config) Encode() []byte {
	var e enc
	e.u32(c.Shards)
	e.u32(c.ShardSize)
	e.bytes(c.Digest[:])
	e.bytes(c.Spec)
	e.bytes(c.Graph)
	return e.b
}

// DecodeConfig parses a TypeConfig payload.
func DecodeConfig(b []byte) (Config, error) {
	d := dec{b}
	var c Config
	var err error
	if c.Shards, err = d.u32(); err != nil {
		return c, err
	}
	if c.ShardSize, err = d.u32(); err != nil {
		return c, err
	}
	dg, err := d.bytes()
	if err != nil {
		return c, err
	}
	if len(dg) != DigestSize {
		return c, fmt.Errorf("%w: got %d", ErrBadDigest, len(dg))
	}
	copy(c.Digest[:], dg)
	if c.Spec, err = d.bytes(); err != nil {
		return c, err
	}
	if c.Graph, err = d.bytes(); err != nil {
		return c, err
	}
	return c, d.done()
}

// Ready is the worker's digest echo closing the handshake.
type Ready struct {
	Digest [DigestSize]byte
}

// Encode serializes the payload.
func (r Ready) Encode() []byte {
	var e enc
	e.bytes(r.Digest[:])
	return e.b
}

// DecodeReady parses a TypeReady payload.
func DecodeReady(b []byte) (Ready, error) {
	d := dec{b}
	var r Ready
	dg, err := d.bytes()
	if err != nil {
		return r, err
	}
	if len(dg) != DigestSize {
		return r, fmt.Errorf("%w: got %d", ErrBadDigest, len(dg))
	}
	copy(r.Digest[:], dg)
	return r, d.done()
}

// Msg is one validated CONGEST message on the wire. From/To are vertex
// indices, Port is the receiver's port, Seq numbers the sender's emissions
// within the round (the trace merge key), and Kind is the sender's trace tag
// ("" outside traced runs).
type Msg struct {
	From, To, Port, Seq int32
	Kind                string
	Payload             []byte
}

// msgMinSize is the smallest encoding of a Msg (four u32 fields plus two
// empty length prefixes), used to bound count fields.
const msgMinSize = 4*4 + 4 + 4

func (e *enc) msg(m Msg) {
	e.u32(uint32(m.From))
	e.u32(uint32(m.To))
	e.u32(uint32(m.Port))
	e.u32(uint32(m.Seq))
	e.str(m.Kind)
	e.bytes(m.Payload)
}

func (d *dec) msg() (Msg, error) {
	var m Msg
	from, err := d.u32()
	if err != nil {
		return m, err
	}
	to, err := d.u32()
	if err != nil {
		return m, err
	}
	port, err := d.u32()
	if err != nil {
		return m, err
	}
	seq, err := d.u32()
	if err != nil {
		return m, err
	}
	m.From, m.To, m.Port, m.Seq = int32(from), int32(to), int32(port), int32(seq)
	if m.Kind, err = d.str(); err != nil {
		return m, err
	}
	if m.Payload, err = d.bytes(); err != nil {
		return m, err
	}
	return m, nil
}

func (d *dec) msgs() ([]Msg, error) {
	n, err := d.count(msgMinSize)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Msg, n)
	for i := range out {
		if out[i], err = d.msg(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *enc) msgList(ms []Msg) {
	e.u32(uint32(len(ms)))
	for _, m := range ms {
		e.msg(m)
	}
}

// Batch sender-error kinds, mirroring the engine's validation errors.
const (
	BatchOK            = 0
	BatchErrTooLarge   = 1 // congest.ErrMessageTooLarge
	BatchErrBandwidth  = 2 // congest.ErrBandwidthExceeded
	BatchErrBadPort    = 3 // invalid port
	BatchErrProtocol   = 4 // any other node-program failure
	batchErrKindBounds = 5
)

// Batch is a worker's validated outgoing traffic for one round: Sub[t]
// holds the messages destined for shard t, in sender-vertex emission order.
// A nonzero ErrKind reports the shard's first validation failure (lowest
// sender vertex) instead; Sub is then empty.
type Batch struct {
	ErrKind   uint8
	ErrVertex int32
	ErrText   string
	Sub       [][]Msg
}

// Encode serializes the payload.
func (b Batch) Encode() []byte {
	var e enc
	e.u8(b.ErrKind)
	e.u32(uint32(b.ErrVertex))
	e.str(b.ErrText)
	e.u32(uint32(len(b.Sub)))
	for _, sub := range b.Sub {
		e.msgList(sub)
	}
	return e.b
}

// DecodeBatch parses a TypeBatch payload.
func DecodeBatch(p []byte) (Batch, error) {
	d := dec{p}
	var b Batch
	var err error
	if b.ErrKind, err = d.u8(); err != nil {
		return b, err
	}
	if b.ErrKind >= batchErrKindBounds {
		return b, fmt.Errorf("%w: batch error kind %d", ErrBadType, b.ErrKind)
	}
	ev, err := d.u32()
	if err != nil {
		return b, err
	}
	b.ErrVertex = int32(ev)
	if b.ErrText, err = d.str(); err != nil {
		return b, err
	}
	nsub, err := d.count(4) // each sub-batch is at least its own count field
	if err != nil {
		return b, err
	}
	if nsub > 0 {
		b.Sub = make([][]Msg, nsub)
		for i := range b.Sub {
			if b.Sub[i], err = d.msgs(); err != nil {
				return b, err
			}
		}
	}
	return b, d.done()
}

// Deliver is the coordinator's merged incoming traffic for one receiver
// shard: Delayed holds fault-deferred copies due this round (delivered
// before normal traffic, like the engine's own delayed copies), Msgs the round's
// normal traffic concatenated over sender shards in shard-index order —
// which is global sender-vertex order.
type Deliver struct {
	Delayed []Msg
	Msgs    []Msg
}

// Encode serializes the payload.
func (dl Deliver) Encode() []byte {
	var e enc
	e.msgList(dl.Delayed)
	e.msgList(dl.Msgs)
	return e.b
}

// DecodeDeliver parses a TypeDeliver payload.
func DecodeDeliver(p []byte) (Deliver, error) {
	d := dec{p}
	var dl Deliver
	var err error
	if dl.Delayed, err = d.msgs(); err != nil {
		return dl, err
	}
	if dl.Msgs, err = d.msgs(); err != nil {
		return dl, err
	}
	return dl, d.done()
}

// Event is one receiver-observed delivery, keyed (From, Seq) for the
// coordinator's deterministic trace merge.
type Event struct {
	From, Seq, To, Port, Bits int32
	Kind                      string
}

const eventMinSize = 5*4 + 4

// Report closes a worker's round: the delivery counters its shard
// contributed (the same quantities an engine delivery shard accumulates),
// messages lost to halted receivers of delayed copies, the vertices that
// halted this round (ascending), and the trace events when tracing.
type Report struct {
	Messages   int64
	Bits       int64
	MaxMsgBits int32
	Lost       int64
	Halted     []int32
	Events     []Event
}

// Encode serializes the payload.
func (r Report) Encode() []byte {
	var e enc
	e.i64(r.Messages)
	e.i64(r.Bits)
	e.u32(uint32(r.MaxMsgBits))
	e.i64(r.Lost)
	e.u32(uint32(len(r.Halted)))
	for _, h := range r.Halted {
		e.u32(uint32(h))
	}
	e.u32(uint32(len(r.Events)))
	for _, ev := range r.Events {
		e.u32(uint32(ev.From))
		e.u32(uint32(ev.Seq))
		e.u32(uint32(ev.To))
		e.u32(uint32(ev.Port))
		e.u32(uint32(ev.Bits))
		e.str(ev.Kind)
	}
	return e.b
}

// DecodeReport parses a TypeReport payload.
func DecodeReport(p []byte) (Report, error) {
	d := dec{p}
	var r Report
	var err error
	if r.Messages, err = d.i64(); err != nil {
		return r, err
	}
	if r.Bits, err = d.i64(); err != nil {
		return r, err
	}
	mb, err := d.u32()
	if err != nil {
		return r, err
	}
	r.MaxMsgBits = int32(mb)
	if r.Lost, err = d.i64(); err != nil {
		return r, err
	}
	nh, err := d.count(4)
	if err != nil {
		return r, err
	}
	if nh > 0 {
		r.Halted = make([]int32, nh)
		for i := range r.Halted {
			v, err := d.u32()
			if err != nil {
				return r, err
			}
			r.Halted[i] = int32(v)
		}
	}
	nev, err := d.count(eventMinSize)
	if err != nil {
		return r, err
	}
	if nev > 0 {
		r.Events = make([]Event, nev)
		for i := range r.Events {
			var f [5]uint32
			for j := range f {
				if f[j], err = d.u32(); err != nil {
					return r, err
				}
			}
			kind, err := d.str()
			if err != nil {
				return r, err
			}
			r.Events[i] = Event{
				From: int32(f[0]), Seq: int32(f[1]), To: int32(f[2]),
				Port: int32(f[3]), Bits: int32(f[4]), Kind: kind,
			}
		}
	}
	return r, d.done()
}

// Outputs carries the worker's end-of-run results as opaque bytes (JSON at
// the session layer: per-vertex protocol outputs, reliability counters).
type Outputs struct {
	Data []byte
}

// Encode serializes the payload.
func (o Outputs) Encode() []byte {
	var e enc
	e.bytes(o.Data)
	return e.b
}

// DecodeOutputs parses a TypeOutputs payload.
func DecodeOutputs(p []byte) (Outputs, error) {
	d := dec{p}
	var o Outputs
	var err error
	if o.Data, err = d.bytes(); err != nil {
		return o, err
	}
	return o, d.done()
}

// Abort tears a session down with a reason.
type Abort struct {
	Text string
}

// Encode serializes the payload.
func (a Abort) Encode() []byte {
	var e enc
	e.str(a.Text)
	return e.b
}

// DecodeAbort parses a TypeAbort payload.
func DecodeAbort(p []byte) (Abort, error) {
	d := dec{p}
	var a Abort
	var err error
	if a.Text, err = d.str(); err != nil {
		return a, err
	}
	return a, d.done()
}

// DecodePayload dispatches a frame's payload to its typed decoder. Step and
// Finish frames carry no payload (a non-empty one is ErrTrailing).
func DecodePayload(f Frame) (interface{}, error) {
	switch f.Type {
	case TypeHello:
		return DecodeHello(f.Payload)
	case TypeConfig:
		return DecodeConfig(f.Payload)
	case TypeReady:
		return DecodeReady(f.Payload)
	case TypeStep, TypeFinish:
		if len(f.Payload) != 0 {
			return nil, fmt.Errorf("%w: %d payload bytes on a bare frame", ErrTrailing, len(f.Payload))
		}
		return nil, nil
	case TypeBatch:
		return DecodeBatch(f.Payload)
	case TypeDeliver:
		return DecodeDeliver(f.Payload)
	case TypeReport:
		return DecodeReport(f.Payload)
	case TypeOutputs:
		return DecodeOutputs(f.Payload)
	case TypeAbort:
		return DecodeAbort(f.Payload)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
}
