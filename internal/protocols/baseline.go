package protocols

import (
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
)

// CentralSolver decides a predicate on a fully known graph; it runs at the
// baseline's collection point.
type CentralSolver func(*graph.Graph) (bool, error)

// AcyclicSolver is the centralized acyclicity check used by the benchmark
// baseline.
func AcyclicSolver(g *graph.Graph) (bool, error) {
	return g.NumEdges() == g.NumVertices()-len(g.Components()), nil
}

// BaselineDecide is the naive CONGEST protocol against which the paper's
// constant-round algorithm is compared: build a BFS tree from the node with
// identifier 1, converge-cast the entire edge list to it, solve the problem
// centrally there (with the given solver), and broadcast the verdict. Its
// round complexity is Θ(diam(G) + m·log n / B), which grows with the
// network, whereas the Theorem 6.1 protocol depends only on d and φ.
func BaselineDecide(g *graph.Graph, solve CentralSolver, opts congest.Options) (*RunResult, error) {
	sim, err := congest.NewSimulator(g, opts)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	nodes := make([]*baselineNode, n)
	stats, err := sim.Run(func(v int) congest.Node {
		nodes[v] = &baselineNode{solve: solve}
		return nodes[v]
	})
	if err != nil {
		return nil, err
	}
	res := &RunResult{Stats: stats, Outputs: make([]Output, n)}
	for v := 0; v < n; v++ {
		res.Outputs[v] = nodes[v].out
		if nodes[v].out.IsRoot {
			res.Accepted = nodes[v].out.Accepted
		}
	}
	// The baseline has no treedepth bound to exceed: a failed central solve
	// returns the solver's error, and any other failure is a protocol error.
	for v := 0; v < n; v++ {
		switch out := nodes[v].out; {
		case out.Err != nil:
			return nil, out.Err
		case out.Failure != failNone:
			return nil, fmt.Errorf("%w: baseline node %d failed", ErrProtocol, v)
		}
	}
	return res, nil
}

// Baseline message tags.
const (
	tagBFS      = 10
	tagBFSReply = 11 // payload: 1 = you are my parent, 0 = not
	tagCollect  = 12 // subtree edge list
	tagAnswer   = 13
)

type baselineNode struct {
	solve CentralSolver
	out   Output

	env  *congest.Env
	send []congest.ByteStreamSender
	recv []congest.ByteStreamReceiver

	joined     bool
	parentPort int
	childPorts []int
	replies    int
	collected  int
	edges      [][3]int64 // (idA, idB, weight), aggregated from the subtree
	sentUp     bool
	done       bool
}

// Init implements congest.Node.
func (b *baselineNode) Init(env *congest.Env) []congest.Outgoing {
	b.env = env
	b.send = make([]congest.ByteStreamSender, env.Degree)
	b.recv = make([]congest.ByteStreamReceiver, env.Degree)
	b.parentPort = -1
	env.Tag(KindBFS)
	// Local edges, owned by the smaller-ID endpoint to avoid duplication.
	for port, nid := range env.NeighborIDs {
		if env.ID < nid {
			b.edges = append(b.edges, [3]int64{int64(env.ID), int64(nid), env.PortWeight[port]})
		}
	}
	if env.ID == 1 {
		b.joined = true
		var w wireWriter
		w.u8(tagBFS)
		for port := 0; port < env.Degree; port++ {
			b.send[port].Push(w.buf)
		}
	}
	return b.frames()
}

// Round implements congest.Node.
func (b *baselineNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	b.env = env
	for _, in := range inbox {
		b.recv[in.Port].Feed(in.Payload)
	}
	for port := 0; port < env.Degree; port++ {
		for {
			msg, ok := b.recv[port].Pop()
			if !ok {
				break
			}
			if err := b.handle(port, msg); err != nil {
				b.out.Failure = failProtocol
				b.done = true
			}
		}
	}
	b.progress()
	out := b.frames()
	if b.done && !b.pending() {
		return out, true
	}
	return out, false
}

func (b *baselineNode) frames() []congest.Outgoing {
	var out []congest.Outgoing
	budget := congest.FrameBudgetBytes(b.env.Bandwidth)
	for port := range b.send {
		if frame, ok := b.send[port].NextFrame(budget); ok {
			out = append(out, congest.Outgoing{Port: port, Payload: frame})
		}
	}
	return out
}

func (b *baselineNode) pending() bool {
	for port := range b.send {
		if b.send[port].Pending() {
			return true
		}
	}
	return false
}

func (b *baselineNode) handle(port int, msg []byte) error {
	if len(msg) == 0 {
		return fmt.Errorf("%w: empty baseline message", ErrProtocol)
	}
	switch msg[0] {
	case tagBFS:
		if b.joined {
			var w wireWriter
			w.u8(tagBFSReply)
			w.u8(0)
			b.send[port].Push(w.buf)
			return nil
		}
		b.joined = true
		b.parentPort = port
		var reply wireWriter
		reply.u8(tagBFSReply)
		reply.u8(1)
		b.send[port].Push(reply.buf)
		var probe wireWriter
		probe.u8(tagBFS)
		for p := 0; p < b.env.Degree; p++ {
			if p != port {
				b.send[p].Push(probe.buf)
			}
		}
		if b.env.Degree == 1 {
			// Leaf with only the parent: no replies to wait for.
		}
		return nil
	case tagBFSReply:
		if len(msg) < 2 {
			return fmt.Errorf("%w: short BFS reply", ErrProtocol)
		}
		b.replies++
		if msg[1] == 1 {
			b.childPorts = append(b.childPorts, port)
			sort.Ints(b.childPorts)
		}
		return nil
	case tagCollect:
		r := &wireReader{buf: msg[1:]}
		count, err := r.u32()
		if err != nil {
			return err
		}
		for i := uint32(0); i < count; i++ {
			a, err := r.i64()
			if err != nil {
				return err
			}
			bb, err := r.i64()
			if err != nil {
				return err
			}
			w, err := r.i64()
			if err != nil {
				return err
			}
			b.edges = append(b.edges, [3]int64{a, bb, w})
		}
		b.collected++
		return nil
	case tagAnswer:
		if len(msg) < 2 {
			return fmt.Errorf("%w: short answer", ErrProtocol)
		}
		b.out.Accepted = msg[1] == 1
		b.forwardAnswer()
		return nil
	default:
		return fmt.Errorf("%w: unknown baseline tag %d", ErrProtocol, msg[0])
	}
}

// expectedReplies is the number of BFS replies this node waits for: all
// neighbors except its parent.
func (b *baselineNode) expectedReplies() int {
	if b.env.ID == 1 {
		return b.env.Degree
	}
	return b.env.Degree - 1
}

func (b *baselineNode) progress() {
	if b.done || b.sentUp || !b.joined {
		return
	}
	if b.replies < b.expectedReplies() || b.collected < len(b.childPorts) {
		return
	}
	b.sentUp = true
	if b.env.ID == 1 {
		b.solveAtRoot()
		return
	}
	b.env.Tag(KindCollect)
	var w wireWriter
	w.u8(tagCollect)
	w.u32(uint32(len(b.edges)))
	for _, e := range b.edges {
		w.i64(e[0])
		w.i64(e[1])
		w.i64(e[2])
	}
	b.send[b.parentPort].Push(w.buf)
	// Wait for the answer broadcast (leaves with no children are done after
	// forwarding nothing).
}

func (b *baselineNode) solveAtRoot() {
	b.out.IsRoot = true
	// Rebuild the graph from IDs 1..n.
	n := b.env.N
	g := graph.New(n)
	ok := true
	for _, e := range b.edges {
		u, v := int(e[0])-1, int(e[1])-1
		id, err := g.AddEdge(u, v)
		if err != nil {
			ok = false
			break
		}
		g.SetEdgeWeight(id, e[2])
	}
	accepted := false
	if ok {
		if dec, err := b.solve(g); err == nil {
			accepted = dec
		} else {
			b.out.Failure, b.out.Err = failPredicate, err
		}
	} else {
		b.out.Failure = failProtocol
	}
	b.out.Accepted = accepted
	b.forwardAnswer()
}

func (b *baselineNode) forwardAnswer() {
	b.env.Tag(KindAnswer)
	var w wireWriter
	w.u8(tagAnswer)
	if b.out.Accepted {
		w.u8(1)
	} else {
		w.u8(0)
	}
	for _, port := range b.childPorts {
		b.send[port].Push(w.buf)
	}
	b.done = true
}
