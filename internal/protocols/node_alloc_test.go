package protocols

import (
	"testing"

	"repro/internal/congest"
)

// TestNodeSteadyRoundZeroAllocs pins the dpNode elimination rounds at zero
// heap allocations in steady state. First a mid-window round with no
// inbound traffic and drained send streams; then a whole cycle of the
// elimination phase's kinds of round, with a message arriving on every port
// throughout: a window-start round that pushes the node's tuple, the
// mid-window rounds that pump its frames and complete the inbound
// messages, and an announce window in which the node adopts itself and
// announces. Neither the streams, nor the elimination codec, nor the frame
// pump may allocate once warm. Phase transitions and DP message handling
// may allocate; the rounds that dominate Algorithm 2 may not.
func TestNodeSteadyRoundZeroAllocs(t *testing.T) {
	env := &congest.Env{
		ID: 5, Degree: 3, NeighborIDs: []int{1, 2, 9},
		Bandwidth: 64, N: 1 << 20,
	}
	node := NewNode(Config{Mode: ModeDecide, D: 3}).(*dpNode)
	node.Init(env)

	// Round 1 opens the first flooding window (pushes tuples); a few
	// mid-window rounds drain the streams. The window is ceil(16/8)+1 = 3
	// rounds, so env.Round = 2 keeps the node mid-window (windowPos = 1) and
	// far from the phase transition at the last elimination round.
	env.Round = 1
	node.Round(env, nil)
	env.Round = 2
	for i := 0; i < 8; i++ {
		node.Round(env, nil)
	}
	if node.pendingFrames() {
		t.Fatal("send streams not drained after warm-up")
	}

	avg := testing.AllocsPerRun(100, func() {
		out, halted := node.Round(env, nil)
		if halted {
			t.Fatal("node halted during elimination")
		}
		if len(out) != 0 {
			t.Fatalf("unexpected frames from a drained node: %d", len(out))
		}
	})
	if avg != 0 {
		t.Errorf("steady-state node round allocates %.1f objects/round, want 0", avg)
	}

	t.Run("elimination-cycle", testElimCycleZeroAllocs)
}

// testElimCycleZeroAllocs runs the window-start, mid-window and announce
// rounds of the elimination phase on one node, feeding one frame of a flood
// tuple on every port every round, and pins the cycle at zero allocations.
func testElimCycleZeroAllocs(t *testing.T) {
	env := &congest.Env{
		ID: 5, Degree: 3, NeighborIDs: []int{1, 2, 9},
		Bandwidth: 64, N: 1 << 20,
	}
	node := NewNode(Config{Mode: ModeDecide, D: 3}).(*dpNode)
	node.Init(env)
	sched := node.sched
	if sched.frameBudget != 8 || sched.window != 3 {
		t.Fatalf("schedule %+v: the cycle below assumes 8-byte frames and 3-round windows", sched)
	}

	// A neighbour's flood tuple (depth 0, marked 0, candidate 9) loses to
	// the node's own candidacy (candidate 5), so every announce window
	// elects the node itself. On the wire it is a 4-byte length prefix and
	// 12 payload bytes: two 8-byte frames.
	var wire [elimMsgBytes]byte
	wire[0] = elimPayloadBytes
	copy(wire[4:], node.encodeElim(0, 0, 9))
	var inbox [2][3]congest.Incoming
	for half := range inbox {
		for port := range inbox[half] {
			inbox[half][port] = congest.Incoming{Port: port, Payload: wire[8*half : 8*half+8]}
		}
	}
	announce := sched.hops*sched.window + 1 // first round of step 1's announce window
	rounds := []struct {
		round, frames int
	}{
		{1, 3}, {2, 3}, {3, 0}, // window start: push the tuple to every port; pump it
		{announce, 3}, {announce + 1, 3}, {announce + 2, 0}, // announce; pump it
	}
	cycle := func() {
		for i, r := range rounds {
			env.Round = r.round
			out, halted := node.Round(env, inbox[i%2][:])
			if halted {
				t.Fatal("node halted during elimination")
			}
			if len(out) != r.frames {
				t.Fatalf("round %d: %d frames out, want %d", r.round, len(out), r.frames)
			}
		}
		if !node.marked || node.parentID != -1 || node.depth != 1 {
			t.Fatalf("announce window did not elect the node: marked=%v parent=%d depth=%d",
				node.marked, node.parentID, node.depth)
		}
		// Unmark, so the next cycle floods and announces again.
		node.marked, node.parentID, node.depth = false, -2, 0
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("elimination cycle allocates %.1f objects per %d rounds, want 0", avg, len(rounds))
	}
}
