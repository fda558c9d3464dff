package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// The fault-injection scenario (S3) measures the reliable-delivery adapter
// under seed-driven network chaos: for each graph family and drop rate (with
// proportional duplication and reordering mixed in), the full DP protocol
// runs wrapped in the ARQ adapter and its verdict is compared against the
// fault-free run. The claim under test: every run at drop rates up to 0.2
// completes and agrees — faults cost rounds and retransmissions, never
// answers. cmd/bench serializes the result as BENCH_faults.json.

// FaultRun is one (family, schedule, seed) measurement.
type FaultRun struct {
	Family    string `json:"family"`
	N         int    `json:"n"`
	Edges     int    `json:"edges"`
	Predicate string `json:"predicate"`

	Seed          int64   `json:"seed"`
	DropRate      float64 `json:"drop_rate"`
	DupRate       float64 `json:"dup_rate"`
	ReorderRate   float64 `json:"reorder_rate"`
	ReorderWindow int     `json:"reorder_window"`

	// Completed is false when the run ended with ErrUnrecoverable.
	Completed     bool   `json:"completed"`
	Unrecoverable string `json:"unrecoverable,omitempty"`
	// VerdictOK: the completed run reported the fault-free verdict.
	VerdictOK bool `json:"verdict_ok"`

	Rounds        int     `json:"rounds"`
	VirtualRounds int     `json:"virtual_rounds"`
	BaseRounds    int     `json:"base_rounds"` // fault-free raw protocol rounds
	RoundOverhead float64 `json:"round_overhead"`
	Messages      int64   `json:"messages"`

	Dropped     int64 `json:"dropped"`
	Duplicated  int64 `json:"duplicated"`
	Delayed     int64 `json:"delayed"`
	Lost        int64 `json:"lost"`
	CrashRounds int64 `json:"crash_rounds"`

	Chunks         int64   `json:"chunks"`
	Retransmits    int64   `json:"retransmits"`
	DupChunks      int64   `json:"dup_chunks"`
	AckFrames      int64   `json:"ack_frames"`
	RetransmitRate float64 `json:"retransmit_rate"` // retransmits / chunks

	WallMS float64 `json:"wall_ms"`
}

// FaultReport is the BENCH_faults.json document.
type FaultReport struct {
	Harness    string     `json:"harness"`
	Quick      bool       `json:"quick"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Runs       []FaultRun `json:"runs"`
	// WrongVerdicts counts completed runs that disagreed with the fault-free
	// verdict; anything but 0 is a correctness bug.
	WrongVerdicts int `json:"wrong_verdicts"`
	// Unrecovered counts runs the adapter gave up on; the sweep stays at or
	// below the drop rate the default retry budget must mask, so anything
	// but 0 fails the sweep.
	Unrecovered int `json:"unrecovered"`
	// MaxMaskedDrop is the highest drop rate at which every run completed
	// with the correct verdict.
	MaxMaskedDrop float64 `json:"max_masked_drop"`
}

// faultFamily is one graph family of the sweep.
type faultFamily struct {
	name      string
	n         int
	d         int
	extraProb float64
	seed      int64
}

func faultFamilies(quick bool) []faultFamily {
	if quick {
		return []faultFamily{
			{name: "td2", n: 12, d: 2, extraProb: 0.3, seed: 81},
			{name: "td3", n: 16, d: 3, extraProb: 0.3, seed: 82},
		}
	}
	return []faultFamily{
		{name: "td2", n: 20, d: 2, extraProb: 0.3, seed: 81},
		{name: "td3", n: 28, d: 3, extraProb: 0.3, seed: 82},
	}
}

func faultDropRates(quick bool) []float64 {
	if quick {
		return []float64{0, 0.1, 0.2}
	}
	return []float64{0, 0.05, 0.1, 0.2}
}

func faultSeeds(quick bool) []int64 {
	if quick {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

// FaultSweep runs the S3 scenario: family × drop rate × seed, each run
// cross-checked against the fault-free verdict.
func FaultSweep(quick bool) (*FaultReport, error) {
	rep := &FaultReport{
		Harness:    "cmd/bench S3 (fault injection: reliable delivery over a lossy CONGEST network)",
		Quick:      quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	pred := predicates.Connectivity{}
	for _, fam := range faultFamilies(quick) {
		g, _ := gen.BoundedTreedepth(fam.n, fam.d, fam.extraProb, fam.seed)
		base, err := protocols.Run(g, protocols.Config{Pred: pred, Mode: protocols.ModeDecide, D: fam.d}, congest.Options{})
		if err != nil {
			return nil, fmt.Errorf("faults %s: fault-free baseline: %w", fam.name, err)
		}
		for _, drop := range faultDropRates(quick) {
			for _, seed := range faultSeeds(quick) {
				// Duplication and reordering scale with the drop rate, so one
				// knob sweeps the whole chaos level; drop 0 is the adapter's
				// own overhead floor.
				fcfg := faults.Config{
					Seed:        seed,
					DropRate:    drop,
					DupRate:     drop / 2,
					ReorderRate: drop / 2,
				}
				if drop > 0 {
					fcfg.ReorderWindow = 4
				}
				run := FaultRun{
					Family:    fam.name,
					N:         fam.n,
					Edges:     g.NumEdges(),
					Predicate: "connectivity",
					Seed:      seed,
					DropRate:  fcfg.DropRate, DupRate: fcfg.DupRate,
					ReorderRate: fcfg.ReorderRate, ReorderWindow: fcfg.ReorderWindow,
					BaseRounds: base.Stats.Rounds,
				}
				opts := congest.Options{
					BandwidthFactor: protocols.ReliableBandwidthFactor(fam.n),
					Injector:        faults.New(fcfg),
				}
				start := time.Now()
				res, err := protocols.Run(g, protocols.Config{
					Pred: pred, Mode: protocols.ModeDecide, D: fam.d, Reliable: true,
				}, opts)
				run.WallMS = float64(time.Since(start).Microseconds()) / 1000
				switch {
				case err == nil:
					run.Completed = true
					run.VerdictOK = !res.TdExceeded && res.Accepted == base.Accepted
					if !run.VerdictOK {
						rep.WrongVerdicts++
					}
				case errors.Is(err, protocols.ErrUnrecoverable):
					run.Unrecoverable = err.Error()
					rep.Unrecovered++
				default:
					return nil, fmt.Errorf("faults %s drop=%g seed=%d: %w", fam.name, drop, seed, err)
				}
				if res != nil {
					run.Rounds = res.Stats.Rounds
					run.Messages = res.Stats.Messages
					run.VirtualRounds = res.Reliability.VirtualRounds
					if base.Stats.Rounds > 0 {
						run.RoundOverhead = float64(res.Stats.Rounds) / float64(base.Stats.Rounds)
					}
					run.Dropped = res.Stats.Faults.Dropped
					run.Duplicated = res.Stats.Faults.Duplicated
					run.Delayed = res.Stats.Faults.Delayed
					run.Lost = res.Stats.Faults.Lost
					run.CrashRounds = res.Stats.Faults.CrashRounds
					run.Chunks = res.Reliability.Chunks
					run.Retransmits = res.Reliability.Retransmits
					run.DupChunks = res.Reliability.DupChunks
					run.AckFrames = res.Reliability.AckFrames
					if res.Reliability.Chunks > 0 {
						run.RetransmitRate = float64(res.Reliability.Retransmits) / float64(res.Reliability.Chunks)
					}
				}
				if run.Completed && run.VerdictOK && run.DropRate > rep.MaxMaskedDrop {
					rep.MaxMaskedDrop = run.DropRate
				}
				rep.Runs = append(rep.Runs, run)
			}
		}
	}
	if rep.WrongVerdicts > 0 {
		return rep, fmt.Errorf("fault sweep: %d completed runs reported a wrong verdict", rep.WrongVerdicts)
	}
	if rep.Unrecovered > 0 {
		return rep, fmt.Errorf("fault sweep: %d runs unrecoverable at drop rates the default budget must mask", rep.Unrecovered)
	}
	return rep, nil
}

// FaultTable renders a FaultReport as the S3 experiment table.
func FaultTable(rep *FaultReport) *Table {
	tab := &Table{
		ID:     "S3",
		Title:  "Fault injection: reliable delivery over a lossy CONGEST network",
		Claim:  "the ARQ adapter masks drop rates up to 0.2 (plus duplication and reordering) — faults cost rounds and retransmissions, never verdicts",
		Header: []string{"family", "n", "drop", "seed", "ok", "rounds", "vrounds", "overhead", "chunks", "retx", "retx rate", "dropped"},
	}
	for _, r := range rep.Runs {
		ok := "FAIL"
		if r.Completed && r.VerdictOK {
			ok = "yes"
		} else if !r.Completed {
			ok = "unrec"
		}
		tab.AddRow(r.Family, r.N, fmt.Sprintf("%.2f", r.DropRate), r.Seed, ok,
			r.Rounds, r.VirtualRounds, fmt.Sprintf("%.1fx", r.RoundOverhead),
			r.Chunks, r.Retransmits, fmt.Sprintf("%.3f", r.RetransmitRate), r.Dropped)
	}
	tab.Notes = append(tab.Notes,
		"every run wraps the DP protocol in the stop-and-wait ARQ adapter; dup/reorder rates are drop/2 with window 4",
		"overhead is physical rounds / fault-free raw-protocol rounds (drop 0 rows are the adapter's synchronization floor)",
		fmt.Sprintf("wrong verdicts: %d, unrecoverable: %d, highest fully-masked drop rate: %.2f",
			rep.WrongVerdicts, rep.Unrecovered, rep.MaxMaskedDrop))
	return tab
}

// S3Faults is the Experiment wrapper over FaultSweep.
func S3Faults(quick bool) (*Table, error) {
	rep, err := FaultSweep(quick)
	if err != nil {
		return nil, err
	}
	return FaultTable(rep), nil
}
