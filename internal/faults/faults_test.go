package faults

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph/gen"
)

// floodNode is a crash-tolerant workload: it broadcasts one byte every round
// and halts purely on the round number, so no fault schedule can wedge it.
type floodNode struct{ lastRound int }

func (f *floodNode) Init(env *congest.Env) []congest.Outgoing {
	return []congest.Outgoing{congest.Broadcast(congest.Message{0})}
}

func (f *floodNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	if env.Round >= f.lastRound {
		return nil, true
	}
	return []congest.Outgoing{congest.Broadcast(congest.Message{byte(env.Round)})}, false
}

// runFlood runs the flood workload under the given schedule and returns the
// stats. Crash outages can push halting past lastRound, so the round limit
// leaves generous headroom.
func runFlood(t *testing.T, cfg Config, n, lastRound int) congest.Stats {
	t.Helper()
	g, _ := gen.BoundedTreedepth(n, 3, 0.3, 11)
	sim, err := congest.NewSimulator(g, congest.Options{Injector: New(cfg), RoundLimit: lastRound + 200})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(func(v int) congest.Node { return &floodNode{lastRound: lastRound} })
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestNormalizeClamps(t *testing.T) {
	c := Config{
		DropRate:      -1,
		DupRate:       3,
		ReorderRate:   math.NaN(),
		CrashRate:     math.Inf(1),
		ReorderWindow: 1000,
		MinOutage:     -5,
		MaxOutage:     1000,
	}.normalized()
	if c.DropRate != 0 || c.DupRate != 1 || c.ReorderRate != 0 || c.CrashRate != 1 {
		t.Fatalf("rates not clamped: %+v", c)
	}
	if c.ReorderWindow != MaxReorderWindow {
		t.Fatalf("ReorderWindow = %d, want %d", c.ReorderWindow, MaxReorderWindow)
	}
	if c.MinOutage != 1 || c.MaxOutage != MaxOutage {
		t.Fatalf("outage bounds not clamped: %+v", c)
	}
	if c2 := (Config{MinOutage: 5, MaxOutage: 2}).normalized(); c2.MaxOutage < c2.MinOutage {
		t.Fatalf("MaxOutage < MinOutage after normalize: %+v", c2)
	}
}

func TestQuiet(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want bool
	}{
		{Config{}, true},
		{Config{Seed: 42}, true},
		{Config{ReorderRate: 0.5}, true}, // window 0: reorder is inert
		{Config{ReorderRate: 0.5, ReorderWindow: 2}, false},
		{Config{DropRate: 0.01}, false},
		{Config{DupRate: 0.01}, false},
		{Config{CrashRate: 0.01}, false},
	} {
		if got := tc.cfg.Quiet(); got != tc.want {
			t.Errorf("Quiet(%+v) = %v, want %v", tc.cfg, got, tc.want)
		}
	}
}

// TestOnSendDeterminism: OnSend is a pure function of the seed and the
// message key. Equal Configs give equal plans, re-evaluation never shifts a
// plan, and concurrent callers (the engine's delivery shards) see the serial
// plans.
func TestOnSendDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.3, DupRate: 0.2, ReorderRate: 0.2, ReorderWindow: 4}
	a, b := New(cfg), New(cfg)
	const rounds, senders, seqs = 50, 4, 4
	want := make([]congest.FaultPlan, rounds*senders*seqs)
	for round := 0; round < rounds; round++ {
		for from := 0; from < senders; from++ {
			for seq := 0; seq < seqs; seq++ {
				p1 := a.OnSend(round, from, from+1, seq)
				if p2 := b.OnSend(round, from, from+1, seq); p1 != p2 {
					t.Fatalf("(%d,%d,%d): plans diverged: %+v vs %+v", round, from, seq, p1, p2)
				}
				if p3 := a.OnSend(round, from, from+1, seq); p3 != p1 {
					t.Fatalf("(%d,%d,%d): re-evaluation shifted: %+v vs %+v", round, from, seq, p3, p1)
				}
				want[(round*senders+from)*seqs+seq] = p1
			}
		}
	}
	var wg sync.WaitGroup
	got := make([]congest.FaultPlan, len(want))
	for from := 0; from < senders; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for seq := 0; seq < seqs; seq++ {
					got[(round*senders+from)*seqs+seq] = a.OnSend(round, from, from+1, seq)
				}
			}
		}(from)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: concurrent plan %+v, serial plan %+v", i, got[i], want[i])
		}
	}
}

// TestOnSendSeedIndependence: different seeds give different schedules
// (same distribution, independent samples).
func TestOnSendSeedIndependence(t *testing.T) {
	c, d := New(Config{Seed: 1, DropRate: 0.5}), New(Config{Seed: 2, DropRate: 0.5})
	same := 0
	const total = 500
	for round := 0; round < total; round++ {
		if c.OnSend(round, 0, 1, 0) == d.OnSend(round, 0, 1, 0) {
			same++
		}
	}
	if same == total {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestOnSendRatesAndBounds: empirical rates land near the configured
// probabilities, every delay stays inside the reorder window, and a dropped
// message is never also delayed.
func TestOnSendRatesAndBounds(t *testing.T) {
	cfg := Config{Seed: 1234, DropRate: 0.25, DupRate: 0.15, ReorderRate: 0.2, ReorderWindow: 3}
	inj := New(cfg)
	var n, drops, dups, delays int
	for round := 0; round < 2000; round++ {
		for from := 0; from < 3; from++ {
			for seq := 0; seq < 2; seq++ {
				p := inj.OnSend(round, from, from+1, seq)
				n++
				if p.Drop {
					drops++
				}
				if p.Dup > 0 {
					dups++
					if p.DupDelay < 0 || p.DupDelay > cfg.ReorderWindow {
						t.Fatalf("DupDelay %d outside [0, %d]", p.DupDelay, cfg.ReorderWindow)
					}
				}
				if p.Delay != 0 {
					delays++
					if p.Drop {
						t.Fatal("dropped message also delayed")
					}
					if p.Delay < 1 || p.Delay > cfg.ReorderWindow {
						t.Fatalf("Delay %d outside [1, %d]", p.Delay, cfg.ReorderWindow)
					}
				}
			}
		}
	}
	check := func(name string, got int, want float64) {
		rate := float64(got) / float64(n)
		if math.Abs(rate-want) > 0.02 {
			t.Errorf("%s rate %.4f, want %.2f ± 0.02 (%d of %d)", name, rate, want, got, n)
		}
	}
	check("drop", drops, cfg.DropRate)
	check("dup", dups, cfg.DupRate)
	// Delay only applies to undropped messages.
	check("delay", delays, cfg.ReorderRate*(1-cfg.DropRate))
}

func TestStringMentionsKnobs(t *testing.T) {
	s := Config{Seed: 9, DropRate: 0.25}.String()
	for _, want := range []string{"seed=9", "drop=0.25"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

// TestQuietScheduleTransparent: a quiet schedule must leave the run's stats
// exactly equal to a run with no injector at all.
func TestQuietScheduleTransparent(t *testing.T) {
	g, _ := gen.BoundedTreedepth(80, 3, 0.3, 11)
	run := func(opts congest.Options) congest.Stats {
		sim, err := congest.NewSimulator(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run(func(v int) congest.Node { return &floodNode{lastRound: 6} })
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	base := run(congest.Options{})
	quiet := run(congest.Options{Injector: New(Config{Seed: 1234})})
	if base != quiet {
		t.Fatalf("quiet schedule changed stats: %+v vs %+v", quiet, base)
	}
}

// TestReplayDeterminism: the same Config replays the same fault stream, and
// one Injector value reused across runs re-seeds itself each RunStart.
func TestReplayDeterminism(t *testing.T) {
	cfg := Config{Seed: 77, DropRate: 0.2, DupRate: 0.1, ReorderRate: 0.1, ReorderWindow: 3, CrashRate: 0.01}
	a := runFlood(t, cfg, 60, 8)
	b := runFlood(t, cfg, 60, 8)
	if a != b {
		t.Fatalf("same schedule, different runs:\n%+v\n%+v", a, b)
	}
	if a.Faults.Dropped == 0 || a.Faults.Duplicated == 0 || a.Faults.Delayed == 0 {
		t.Fatalf("schedule injected nothing: %+v", a.Faults)
	}
	other := cfg
	other.Seed = 78
	if c := runFlood(t, other, 60, 8); c.Faults == a.Faults {
		t.Fatalf("independent seeds produced identical fault streams: %+v", c.Faults)
	}
}

func TestSingleKnobSchedules(t *testing.T) {
	drop := runFlood(t, Config{Seed: 5, DropRate: 0.3}, 40, 8).Faults
	if drop.Dropped == 0 || drop.Duplicated != 0 || drop.Delayed != 0 || drop.CrashRounds != 0 {
		t.Fatalf("drop-only schedule: %+v", drop)
	}
	dup := runFlood(t, Config{Seed: 5, DupRate: 0.5}, 40, 8).Faults
	if dup.Duplicated == 0 || dup.Dropped != 0 || dup.Delayed != 0 {
		t.Fatalf("dup-only schedule (window 0 means same-round copies): %+v", dup)
	}
	reorder := runFlood(t, Config{Seed: 5, ReorderRate: 0.5, ReorderWindow: 4}, 40, 8).Faults
	if reorder.Delayed == 0 || reorder.Dropped != 0 || reorder.Duplicated != 0 {
		t.Fatalf("reorder-only schedule: %+v", reorder)
	}
	crash := runFlood(t, Config{Seed: 5, CrashRate: 0.05, MinOutage: 1, MaxOutage: 3}, 40, 8).Faults
	if crash.CrashRounds == 0 || crash.Dropped != 0 || crash.Duplicated != 0 {
		t.Fatalf("crash-only schedule: %+v", crash)
	}
}

func TestDecodeSchedule(t *testing.T) {
	if cfg := DecodeSchedule(nil); !cfg.Quiet() || cfg.Seed != 0 {
		t.Fatalf("empty input must decode to the quiet zero-seed schedule, got %+v", cfg)
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 255, 255, 255, 255, 255, 255, 255, 255}
	a, b := DecodeSchedule(data), DecodeSchedule(data)
	if a != b {
		t.Fatalf("decode not deterministic: %+v vs %+v", a, b)
	}
	if a != a.normalized() {
		t.Fatalf("decoded schedule not normalized: %+v", a)
	}
	if a.DropRate > 0.5 || a.CrashRate > 0.05 {
		t.Fatalf("decoded rates exceed caps: %+v", a)
	}
	if a.DropRate == 0 || a.DupRate == 0 || a.ReorderWindow == 0 {
		t.Fatalf("max bytes must enable the knobs: %+v", a)
	}
	// Long inputs only use the prefix; short inputs zero-pad.
	if DecodeSchedule(append(append([]byte(nil), data...), 9, 9, 9)) != a {
		t.Fatalf("decode must ignore trailing bytes")
	}
	if got := DecodeSchedule([]byte{1}); got.Seed != 1 || !got.Quiet() {
		t.Fatalf("short input must zero-pad: %+v", got)
	}
}
