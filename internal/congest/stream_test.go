package congest

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStreamRandomInterleavings drives a sender/receiver pair through random
// interleavings of Push, NextFrame (random budgets of 1..16 bytes), Feed and
// Pop, with messages of 0..64 bytes. Every message must come out byte-exact
// and in order, and over 10^4 push/drain cycles the capacity of either
// stream's backing array must stay bounded by the largest backlog it held:
// rewinding and compacting reuse the array instead of growing it forever.
func TestStreamRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var (
		s       ByteStreamSender
		r       ByteStreamReceiver
		want    [][]byte // pushed, not yet popped
		pushed  int
		popped  int
		maxSend int // largest sender backlog, in bytes
		maxRecv int // largest receiver backlog, in bytes
	)
	backlog := func(buf []byte, off int) int { return len(buf) - off }
	pop := func() {
		for {
			msg, ok := r.Pop()
			if !ok {
				return
			}
			if len(want) == 0 {
				t.Fatalf("popped message %d, but nothing is outstanding", popped)
			}
			if !bytes.Equal(msg, want[0]) {
				t.Fatalf("message %d: got %x, want %x", popped, msg, want[0])
			}
			want = want[1:]
			popped++
		}
	}
	frame := func() bool {
		f, ok := s.NextFrame(1 + rng.Intn(16))
		if !ok {
			return false
		}
		// The frame is only valid until the next Push. Feed it, then
		// scribble over it: the receiver must own a copy of what it was fed.
		r.Feed(f)
		for i := range f {
			f[i] ^= 0xFF
		}
		if b := backlog(r.buf, r.off); b > maxRecv {
			maxRecv = b
		}
		return true
	}
	const cycles = 10000
	for c := 0; c < cycles; c++ {
		// Push a burst of messages, with frames and pops interleaved.
		for k := rng.Intn(4); k >= 0; k-- {
			msg := make([]byte, rng.Intn(65))
			rng.Read(msg)
			s.Push(msg)
			want = append(want, msg)
			pushed++
			if b := backlog(s.buf, s.off); b > maxSend {
				maxSend = b
			}
			for f := rng.Intn(3); f > 0; f-- {
				frame()
			}
			if rng.Intn(2) == 0 {
				pop()
			}
		}
		// Drain fully every few cycles, partially otherwise, so both the
		// rewind (empty stream) and the compaction (backlog left behind)
		// paths run.
		if c%3 == 0 {
			for frame() {
			}
		} else {
			for f := rng.Intn(8); f > 0; f-- {
				frame()
			}
		}
		pop()
		if s.Pending() != (backlog(s.buf, s.off) > 0) {
			t.Fatalf("cycle %d: Pending() = %v with %d bytes queued", c, s.Pending(), backlog(s.buf, s.off))
		}
	}
	for frame() {
	}
	pop()
	if len(want) != 0 || popped != pushed {
		t.Fatalf("%d of %d messages popped, %d outstanding", popped, pushed, len(want))
	}
	// append grows a backing array to at most about twice what it must
	// hold, rounded up to a size class; compaction means it must only hold
	// the backlog.
	bound := func(maxBacklog int) int { return 2*maxBacklog + 64 }
	if got := cap(s.buf); got > bound(maxSend) {
		t.Errorf("sender capacity %d exceeds 2 x largest backlog %d (+64)", got, maxSend)
	}
	if got := cap(r.buf); got > bound(maxRecv) {
		t.Errorf("receiver capacity %d exceeds 2 x largest backlog %d (+64)", got, maxRecv)
	}
	t.Logf("%d messages; sender cap %d (max backlog %d), receiver cap %d (max backlog %d)",
		pushed, cap(s.buf), maxSend, cap(r.buf), maxRecv)
}

// TestStreamSteadyZeroAllocs pins the steady stream path at zero heap
// allocations: once the backing arrays have grown to fit the traffic,
// pushing a message, framing it and popping it allocates nothing.
func TestStreamSteadyZeroAllocs(t *testing.T) {
	var s ByteStreamSender
	var r ByteStreamReceiver
	msg := make([]byte, 12)
	cycle := func() {
		s.Push(msg)
		s.Push(msg)
		for {
			f, ok := s.NextFrame(7)
			if !ok {
				break
			}
			r.Feed(f)
		}
		for {
			if _, ok := r.Pop(); !ok {
				break
			}
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady push/frame/pop cycle allocates %.1f objects, want 0", avg)
	}
}

// TestStreamRelease checks that Release gives up a drained stream's backing
// array and leaves one that still holds bytes alone, and that frames and
// messages handed out before a Release keep their bytes.
func TestStreamRelease(t *testing.T) {
	var s ByteStreamSender
	var r ByteStreamReceiver
	big := bytes.Repeat([]byte{0xab}, 300)
	s.Push(big)
	first, _ := s.NextFrame(100)
	s.Release() // 204 bytes still queued
	if cap(s.buf) == 0 || !s.Pending() {
		t.Fatal("Release dropped a sender that still had bytes queued")
	}
	r.Feed(first)
	r.Release() // an incomplete message is buffered
	if cap(r.buf) == 0 {
		t.Fatal("Release dropped a receiver that still held part of a message")
	}
	for {
		f, ok := s.NextFrame(100)
		if !ok {
			break
		}
		r.Feed(f)
	}
	s.Release()
	if cap(s.buf) != 0 {
		t.Errorf("drained sender kept a %d-byte array after Release", cap(s.buf))
	}
	msg, ok := r.Pop()
	if !ok {
		t.Fatal("no message after feeding every frame")
	}
	r.Release()
	if cap(r.buf) != 0 {
		t.Errorf("drained receiver kept a %d-byte array after Release", cap(r.buf))
	}
	if !bytes.Equal(msg, big) {
		t.Errorf("message changed across Release: got %d bytes %x..., want %d bytes of ab", len(msg), msg[:4], len(big))
	}
	// Both streams work again from scratch.
	s.Push([]byte{1, 2, 3})
	f, _ := s.NextFrame(16)
	r.Feed(f)
	if msg, ok := r.Pop(); !ok || !bytes.Equal(msg, []byte{1, 2, 3}) {
		t.Errorf("after Release: got %x, %v; want 010203", msg, ok)
	}
}
