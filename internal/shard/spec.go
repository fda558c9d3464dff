// Package shard runs the CONGEST simulation as a multi-process system: K
// worker processes each own a contiguous vertex range and execute the node
// programs, while a coordinator drives the round barrier over a
// length-prefixed frame protocol (package transport) and performs the
// deterministic receiver-side merge. The partition is exactly the engine's
// receiver-sharded scheme, and every rule of the in-process engine —
// sender validation order, the receiver-side drop rule, stats accounting,
// trace event order — is reproduced, so verdicts, congest.Stats, and trace
// output are bit-identical to a single-process run at any shard count
// (pinned by the cross-process differential battery in equiv_test.go).
//
// A session is one run:
//
//	worker:  HELLO ->
//	coord:             <- CONFIG (digest + spec + graph)
//	worker:  READY ->
//	         per round r = 0, 1, ...:
//	coord:             <- STEP(r)
//	worker:  BATCH(r) ->          (messages bucketed by receiver shard)
//	coord:             <- DELIVER(r)  (merged traffic for this shard)
//	worker:  REPORT(r) ->         (stats delta, halts, trace events)
//	         then:
//	coord:             <- FINISH
//	worker:  OUTPUTS ->           (per-vertex protocol outputs)
//
// ABORT (either direction) ends the session early. The coordinator may
// apply frame-level faults (package faults' FrameInjector) to inter-shard
// BATCH traffic before the merge, modeling a lossy network between
// processes that protocols.Reliable's ARQ must recover.
package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
)

// Spec is the run description shipped to every worker in the CONFIG frame:
// everything a worker needs to rebuild the exact protocol configuration,
// with the predicate referenced by registry name or formula text (never
// serialized state). The JSON encoding is part of the wire protocol and is
// covered by the run digest.
type Spec struct {
	// Problem names a registered core problem; its predicate, mode, and
	// direction are resolved by core.Lookup on both sides.
	Problem string `json:"problem,omitempty"`
	// Formula is a closed MSO formula compiled by core.CompileClosedFormula
	// (mutually exclusive with Problem).
	Formula string `json:"formula,omitempty"`
	// Mode overrides the problem's own protocol mode when nonzero (values
	// are protocols.Mode): a formula is a decision problem unless Mode
	// says otherwise, and e.g. ModeCheckMarked reuses a registered
	// predicate on marked inputs.
	Mode int `json:"mode,omitempty"`
	// D is the treedepth parameter.
	D int `json:"d,omitempty"`
	// Maximize is the optimization direction for Formula-based runs
	// (Problem-based runs use the problem's own direction).
	Maximize bool `json:"maximize,omitempty"`
	// Reliable wraps every node in the reliable-delivery adapter.
	Reliable bool                     `json:"reliable,omitempty"`
	Rel      protocols.ReliableConfig `json:"rel,omitempty"`
	// BandwidthFactor / RoundLimit / IDSeed mirror congest.Options.
	BandwidthFactor int   `json:"bandwidth_factor,omitempty"`
	RoundLimit      int   `json:"round_limit,omitempty"`
	IDSeed          int64 `json:"id_seed,omitempty"`
	// Trace makes workers attach sender tags and emission sequence numbers
	// to wire messages so the coordinator can reconstruct the engine's
	// trace event stream exactly.
	Trace bool `json:"trace,omitempty"`
	// Workload selects a non-protocol node program ("" runs the model
	// checker; WorkloadHeartbeat runs the S7 micro-benchmark nodes).
	Workload string `json:"workload,omitempty"`
	// HeartbeatRounds is the heartbeat workload's round count (0 means the
	// S1-compatible default).
	HeartbeatRounds int `json:"heartbeat_rounds,omitempty"`
}

// WorkloadHeartbeat names the S7 scaling workload: every node broadcasts a
// small accumulator for a fixed number of rounds (the same node program as
// experiment S1's), exercising the transport without DP work.
const WorkloadHeartbeat = "heartbeat"

// EncodeSpec returns the canonical JSON bytes of the spec — the form that
// goes on the wire and into the digest.
func EncodeSpec(spec Spec) ([]byte, error) { return json.Marshal(spec) }

// DecodeSpec parses canonical spec bytes.
func DecodeSpec(data []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("shard: bad spec: %w", err)
	}
	return spec, nil
}

// Options converts the spec's simulator knobs to congest.Options.
func (s Spec) Options() congest.Options {
	return congest.Options{
		BandwidthFactor: s.BandwidthFactor,
		RoundLimit:      s.RoundLimit,
		IDSeed:          s.IDSeed,
	}
}

// RoundLimitRounds resolves the spec's round cap like the engine does.
func (s Spec) RoundLimitRounds() int {
	if s.RoundLimit == 0 {
		return congest.DefaultRoundLimit
	}
	return s.RoundLimit
}

// Resolve builds the protocol configuration the spec describes. Both sides
// of the session call it — the worker to instantiate nodes, the
// coordinator to assemble the result — and both must arrive at the same
// configuration, which is why the spec carries names and formulas rather
// than values. Workload specs resolve to a zero Config.
func (s Spec) Resolve() (protocols.Config, error) {
	if s.Workload != "" {
		if s.Workload != WorkloadHeartbeat {
			return protocols.Config{}, fmt.Errorf("shard: unknown workload %q", s.Workload)
		}
		if s.Problem != "" || s.Formula != "" {
			return protocols.Config{}, fmt.Errorf("shard: workload spec must not name a problem or formula")
		}
		return protocols.Config{}, nil
	}
	prob, err := core.ProblemFor(s.Problem, s.Formula)
	if err != nil {
		return protocols.Config{}, fmt.Errorf("shard: %w", err)
	}
	pred, err := prob.Build()
	if err != nil {
		return protocols.Config{}, err
	}
	mode, err := prob.Mode()
	if err != nil {
		return protocols.Config{}, err
	}
	cfg := protocols.Config{Pred: pred, Mode: mode, D: s.D, Maximize: prob.Maximize, Reliable: s.Reliable, Rel: s.Rel}
	if s.Formula != "" {
		cfg.Maximize = s.Maximize
	}
	if s.Mode != 0 {
		cfg.Mode = protocols.Mode(s.Mode)
	}
	switch cfg.Mode {
	case protocols.ModeDecide, protocols.ModeOptimize, protocols.ModeCount, protocols.ModeCheckMarked:
	default:
		return protocols.Config{}, fmt.Errorf("shard: invalid mode %d", s.Mode)
	}
	return cfg, nil
}

// EncodeGraph serializes g in the deterministic edge-list format (weights
// and labels included) — the worker's copy of the input and the digest's
// graph component.
func EncodeGraph(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Digest fingerprints one run: SHA-256 over the spec bytes and the graph
// bytes with unambiguous framing. The coordinator puts it in CONFIG; each
// worker recomputes it from the bytes it received and echoes it in READY,
// so a spec/graph mismatch (version skew, truncation the frame layer
// missed) fails the handshake instead of corrupting a run.
func Digest(specBytes, graphBytes []byte) [32]byte {
	h := sha256.New()
	var hdr [8]byte
	putLen := func(b []byte) {
		n := uint64(len(b))
		for i := 0; i < 8; i++ {
			hdr[i] = byte(n >> (8 * i))
		}
		h.Write(hdr[:])
		h.Write(b)
	}
	putLen(specBytes)
	putLen(graphBytes)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}
