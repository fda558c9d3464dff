// Package faults builds deterministic, seed-driven fault schedules for the
// CONGEST simulator: per-edge Bernoulli message drop, duplication, bounded
// reordering (random extra delivery delays), and crash-restart outages of
// nodes at randomly scheduled rounds. An Injector implements
// congest.FaultInjector, so a schedule plugs into a run via
// congest.Options.Injector.
//
// Every message decision is a pure hash (congest.KeyedDraw) of Config.Seed
// and the message's (round, sender, seq) key, so the engine's delivery
// shards may evaluate them concurrently and in any order. Crash draws come
// from a PRNG stream seeded from Config.Seed and consumed serially in
// RoundStart. The same Config therefore replays the same chaos run
// bit-for-bit at any worker count, and message faults never perturb crash
// schedules.
package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/congest"
)

// crashStreamSalt separates the crash-schedule PRNG stream from the
// per-message stream derived from the same user-facing seed.
const crashStreamSalt = int64(0x5E3779B97F4A7C15)

// MaxReorderWindow bounds how many extra rounds a delayed copy may wait.
// Wider windows make a schedule pathological rather than interesting: the
// reliable adapter's retransmission timeout has to out-wait the window.
const MaxReorderWindow = 16

// MaxOutage bounds a single crash-restart outage, in rounds.
const MaxOutage = 8

// Config describes a fault schedule. The zero value injects nothing (an
// Injector over it is fully transparent). Rates are probabilities; New
// clamps every field into its documented range, so a Config decoded from
// hostile bytes (see DecodeSchedule) is always safe to run.
type Config struct {
	// Seed drives both PRNG streams. Schedules with equal Configs are
	// identical; schedules differing only in Seed are independent samples of
	// the same fault distribution.
	Seed int64
	// DropRate is the per-message probability the network discards the
	// message. Clamped to [0, 1].
	DropRate float64
	// DupRate is the per-message probability the network delivers one extra
	// copy; the copy's extra delay is drawn from [0, ReorderWindow].
	// Clamped to [0, 1].
	DupRate float64
	// ReorderRate is the per-message probability the (undropped) original
	// copy is deferred by 1..ReorderWindow extra rounds, arriving after
	// traffic sent later. Clamped to [0, 1]; inert when ReorderWindow is 0.
	ReorderRate float64
	// ReorderWindow is the maximum extra delay in rounds. Clamped to
	// [0, MaxReorderWindow].
	ReorderWindow int
	// CrashRate is the per-node per-round probability an up node crashes.
	// While down a node does not execute and loses everything addressed to
	// it; its protocol state survives (crash-restart with stable memory).
	// Clamped to [0, 1].
	CrashRate float64
	// MinOutage/MaxOutage bound the rounds a crashed node stays down,
	// drawn uniformly. Clamped to [1, MaxOutage] with MinOutage <= MaxOutage
	// (both default to 1 when unset).
	MinOutage int
	MaxOutage int
}

func clamp01(x float64) float64 {
	// NaN compares false to everything; map it to 0 explicitly.
	if !(x > 0) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// normalized returns the Config with every field forced into range.
func (c Config) normalized() Config {
	c.DropRate = clamp01(c.DropRate)
	c.DupRate = clamp01(c.DupRate)
	c.ReorderRate = clamp01(c.ReorderRate)
	c.CrashRate = clamp01(c.CrashRate)
	c.ReorderWindow = clampInt(c.ReorderWindow, 0, MaxReorderWindow)
	c.MinOutage = clampInt(c.MinOutage, 1, MaxOutage)
	c.MaxOutage = clampInt(c.MaxOutage, c.MinOutage, MaxOutage)
	return c
}

// Quiet reports whether the schedule injects nothing: every effective rate
// is zero after clamping (a positive ReorderRate is inert when the window
// clamps to zero). An Injector over a quiet Config is fully transparent, so
// drivers skip installing it.
func (c Config) Quiet() bool {
	c = c.normalized()
	return c.DropRate == 0 && c.DupRate == 0 && c.CrashRate == 0 &&
		(c.ReorderRate == 0 || c.ReorderWindow == 0)
}

// String summarizes the normalized schedule for logs and error messages.
func (c Config) String() string {
	c = c.normalized()
	return fmt.Sprintf("faults{seed=%d drop=%g dup=%g reorder=%g/%d crash=%g/%d-%d}",
		c.Seed, c.DropRate, c.DupRate, c.ReorderRate, c.ReorderWindow,
		c.CrashRate, c.MinOutage, c.MaxOutage)
}

// Injector realizes a Config as a congest.FaultInjector. One Injector
// serves one simulation at a time; the engine's contract (serial
// RunStart/RoundStart, concurrent read-only NodeDown and OnSend) is exactly
// what it needs.
type Injector struct {
	cfg   Config
	n     int
	crash *rand.Rand // per-node crash draws, consumed in vertex order

	down       []bool
	outageLeft []int
}

// New builds an Injector over the normalized Config. The injector is reset
// by the engine at RunStart, so one Injector value can be reused across runs
// and every run replays the same schedule.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg.normalized()}
}

// Config returns the normalized schedule the injector realizes.
func (inj *Injector) Config() Config { return inj.cfg }

// RunStart implements congest.FaultInjector.
func (inj *Injector) RunStart(n int) {
	inj.n = n
	inj.crash = rand.New(rand.NewSource(inj.cfg.Seed ^ crashStreamSalt))
	if cap(inj.down) < n {
		inj.down = make([]bool, n)
		inj.outageLeft = make([]int, n)
	}
	inj.down = inj.down[:n]
	inj.outageLeft = inj.outageLeft[:n]
	for v := 0; v < n; v++ {
		inj.down[v] = false
		inj.outageLeft[v] = 0
	}
}

// RoundStart implements congest.FaultInjector: running outages tick down,
// and each up node crashes with CrashRate for a uniform 1..MaxOutage-round
// outage. Crash draws come from their own stream, so message traffic cannot
// shift crash schedules.
func (inj *Injector) RoundStart(round int) {
	if inj.cfg.CrashRate <= 0 {
		return
	}
	for v := 0; v < inj.n; v++ {
		if inj.outageLeft[v] > 0 {
			inj.outageLeft[v]--
			inj.down[v] = true
			continue
		}
		if inj.crash.Float64() < inj.cfg.CrashRate {
			span := inj.cfg.MinOutage
			if inj.cfg.MaxOutage > inj.cfg.MinOutage {
				span += inj.crash.Intn(inj.cfg.MaxOutage - inj.cfg.MinOutage + 1)
			}
			inj.down[v] = true
			inj.outageLeft[v] = span - 1
		} else {
			inj.down[v] = false
		}
	}
}

// NodeDown implements congest.FaultInjector as a pure lookup into the state
// RoundStart computed (safe for concurrent readers).
func (inj *Injector) NodeDown(round, vertex int) bool { return inj.down[vertex] }

// OnSend implements congest.FaultInjector as a pure function of the
// message key, so the engine may call it concurrently. Each mechanism draws
// on its own lane, so a schedule with one knob turned replays identically
// when the other knobs change.
func (inj *Injector) OnSend(round, from, to, seq int) congest.FaultPlan {
	return plan(inj.cfg, round, from, seq)
}

// plan draws the drop/dup/delay decisions of the message keyed by
// (round, from, seq).
func plan(c Config, round, from, seq int) congest.FaultPlan {
	draw := func(lane uint64) float64 { return congest.KeyedDraw(c.Seed, round, from, seq, lane) }
	var p congest.FaultPlan
	if c.DropRate > 0 && draw(laneDrop) < c.DropRate {
		p.Drop = true
	}
	if c.DupRate > 0 && draw(laneDup) < c.DupRate {
		p.Dup = 1
		if c.ReorderWindow > 0 {
			p.DupDelay = int(draw(laneDupDelay) * float64(c.ReorderWindow+1))
		}
	}
	if !p.Drop && c.ReorderRate > 0 && c.ReorderWindow > 0 && draw(laneDelay) < c.ReorderRate {
		p.Delay = 1 + int(draw(laneDelay^laneDup)*float64(c.ReorderWindow))
	}
	return p
}

// Per-decision lanes keep the drop/dup/delay draws of one key independent:
// each decision hashes the same key mixed with its own salt.
const (
	laneDrop     = 0x9E3779B97F4A7C15
	laneDup      = 0xC2B2AE3D27D4EB4F
	laneDupDelay = 0x165667B19E3779F9
	laneDelay    = 0x27D4EB2F165667C5
)

// DecodeSchedule derives a Config from arbitrary bytes — the fuzzing entry
// point: any input decodes to a safe, normalized schedule, and equal inputs
// decode to equal schedules. Short (or empty) inputs are zero-padded, so the
// empty string decodes to a quiet schedule with seed 0.
func DecodeSchedule(data []byte) Config {
	var buf [16]byte
	copy(buf[:], data)
	le64 := func(off int) uint64 {
		var x uint64
		for i := 0; i < 8; i++ {
			x |= uint64(buf[off+i]) << uint(8*i)
		}
		return x
	}
	seed := int64(le64(0))
	// One byte per knob: 0 disables cleanly, 255 maps just under the cap.
	rate := func(b byte, max float64) float64 { return float64(b) / 256 * max }
	cfg := Config{
		Seed: seed,
		// Drop is capped at 50%: beyond that nothing terminates inside any
		// reasonable retry budget and every run degenerates into the same
		// ErrUnrecoverable path.
		DropRate:      rate(buf[8], 0.5),
		DupRate:       rate(buf[9], 1),
		ReorderRate:   rate(buf[10], 1),
		ReorderWindow: int(buf[11]) * (MaxReorderWindow + 1) / 256,
		// Crash is capped low for the same reason: it is a per-node,
		// per-round rate.
		CrashRate: rate(buf[12], 0.05),
		MinOutage: 1 + int(buf[13])*MaxOutage/256,
		MaxOutage: 1 + int(buf[14])*MaxOutage/256,
	}
	return cfg.normalized()
}
