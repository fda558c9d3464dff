package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// TestMain runs the command itself when the test binary is started under
// the name dmc, so exit-status tests can execute main.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "dmc" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDMC drives the CLI in-process.
func runDMC(t *testing.T, args []string, stdin string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errw bytes.Buffer
	err = runArgs(args, strings.NewReader(stdin), &out, &errw)
	return out.String(), errw.String(), err
}

func graphText(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFlagCombinations covers every documented flag interaction: which
// combinations run, which error, and which imply others.
func TestFlagCombinations(t *testing.T) {
	g, _ := gen.BoundedTreedepth(12, 3, 0.4, 11)
	text := graphText(t, g)
	cycle := graphText(t, gen.Cycle(6))

	cases := []struct {
		name    string
		args    []string
		stdin   string
		wantOut []string // substrings of stdout
		wantErr string   // substring of the error ("" = must succeed)
	}{
		{
			name: "list", args: []string{"-list"},
			wantOut: []string{"acyclic", "max-independent-set"},
		},
		{
			name: "default-dist", args: []string{"-problem", "acyclic", "-d", "3"}, stdin: text,
			wantOut: []string{"result: accepted=", "congest: rounds="},
		},
		{
			name: "seq", args: []string{"-problem", "acyclic", "-seq"}, stdin: cycle,
			wantOut: []string{"result: accepted=false"},
		},
		{
			name: "parallel", args: []string{"-problem", "acyclic", "-d", "3", "-parallel"}, stdin: text,
			wantOut: []string{"congest: rounds="},
		},
		{
			name: "workers-implies-parallel", args: []string{"-problem", "acyclic", "-d", "3", "-workers", "2"}, stdin: text,
			wantOut: []string{"congest: rounds="},
		},
		{
			name: "workers-negative", args: []string{"-problem", "acyclic", "-workers", "-1"}, stdin: text,
			wantErr: "-workers must be >= 0",
		},
		{
			name: "seq-rejects-parallel", args: []string{"-problem", "acyclic", "-seq", "-parallel"}, stdin: text,
			wantErr: "-parallel/-workers apply to the CONGEST run",
		},
		{
			name: "seq-rejects-workers", args: []string{"-problem", "acyclic", "-seq", "-workers", "2"}, stdin: text,
			wantErr: "-parallel/-workers apply to the CONGEST run",
		},
		{
			name: "seq-rejects-seed", args: []string{"-problem", "acyclic", "-seq", "-seed", "9"}, stdin: text,
			wantErr: "-seed applies to the CONGEST run",
		},
		{
			name: "seq-rejects-faults", args: []string{"-problem", "acyclic", "-seq", "-faults"}, stdin: text,
			wantErr: "-faults applies to the CONGEST run",
		},
		{
			name: "seq-rejects-trace", args: []string{"-problem", "acyclic", "-seq", "-trace", "-"}, stdin: text,
			wantErr: "-trace applies to the CONGEST run",
		},
		{
			name: "problem-and-formula", args: []string{"-problem", "acyclic", "-formula", "exists x:V . adj(x,x)"}, stdin: text,
			wantErr: "either -problem or -formula",
		},
		{
			name: "neither-problem-nor-formula", args: []string{}, stdin: text,
			wantErr: "need -problem or -formula",
		},
		{
			name: "unknown-problem", args: []string{"-problem", "nope"}, stdin: text,
			wantErr: "unknown problem",
		},
		{
			name: "formula", args: []string{"-formula", "~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)", "-d", "3"}, stdin: text,
			wantOut: []string{"problem: formula", "result: accepted="},
		},
		{
			name: "positional-args", args: []string{"-problem", "acyclic", "extra"}, stdin: text,
			wantErr: "unexpected arguments",
		},
		{
			name: "exact-d-dist", args: []string{"-problem", "acyclic", "-exact-d"}, stdin: text,
			wantOut: []string{"treedepth: td=", "congest: rounds="},
		},
		{
			name: "exact-d-seq", args: []string{"-problem", "acyclic", "-exact-d", "-seq"}, stdin: text,
			wantOut: []string{"treedepth: td=", "result: accepted="},
		},
		{
			name: "faults-noop", args: []string{"-problem", "acyclic", "-d", "3", "-faults"}, stdin: text,
			wantOut: []string{"faults: schedule is a no-op", "congest: rounds="},
		},
		{
			name: "faults-noop-inert-reorder", args: []string{"-problem", "acyclic", "-d", "3", "-faults", "-reorder-rate", "0.5", "-reorder-window", "0"}, stdin: text,
			wantOut: []string{"faults: schedule is a no-op"},
		},
		{
			name: "faults-live", args: []string{"-problem", "acyclic", "-d", "3", "-faults", "-drop-rate", "0.1", "-fault-seed", "5"}, stdin: text,
			wantOut: []string{"reliable delivery on", "faults: dropped=", "reliable: vrounds="},
		},
		{
			name: "seq-d-zero", args: []string{"-problem", "acyclic", "-seq", "-d", "0"}, stdin: cycle,
			wantOut: []string{"result: accepted=false"},
		},
		{
			name: "d-zero", args: []string{"-problem", "acyclic", "-d", "0"}, stdin: text,
			wantErr: "-d must be >= 1",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, _, err := runDMC(t, tc.args, tc.stdin)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v\nstdout:\n%s", err, out)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out, want) {
					t.Fatalf("stdout missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestWorkersAloneMatchesParallel: -workers without -parallel must behave
// exactly like -parallel -workers (the old silent-ignore bug).
func TestWorkersAloneMatchesParallel(t *testing.T) {
	g, _ := gen.BoundedTreedepth(14, 3, 0.5, 23)
	text := graphText(t, g)
	want, _, err := runDMC(t, []string{"-problem", "max-independent-set", "-d", "3", "-parallel", "-workers", "3"}, text)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runDMC(t, []string{"-problem", "max-independent-set", "-d", "3", "-workers", "3"}, text)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("-workers alone diverged from -parallel -workers:\n  got:\n%s\n  want:\n%s", got, want)
	}
	// And both must match the plain sequential-delivery run bit-for-bit.
	plain, _, err := runDMC(t, []string{"-problem", "max-independent-set", "-d", "3"}, text)
	if err != nil {
		t.Fatal(err)
	}
	if got != plain {
		t.Fatalf("worker-pool run diverged from the sequential run:\n  got:\n%s\n  want:\n%s", got, plain)
	}
}

// TestNoopFaultsMatchFaultFree: a vacuous -faults schedule must produce the
// identical report to a run without -faults (modulo the no-op notice).
func TestNoopFaultsMatchFaultFree(t *testing.T) {
	g, _ := gen.BoundedTreedepth(12, 3, 0.4, 31)
	text := graphText(t, g)
	want, _, err := runDMC(t, []string{"-problem", "acyclic", "-d", "3"}, text)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runDMC(t, []string{"-problem", "acyclic", "-d", "3", "-faults"}, text)
	if err != nil {
		t.Fatal(err)
	}
	got = strings.Replace(got, "faults: schedule is a no-op (all rates zero); running fault-free\n", "", 1)
	if got != want {
		t.Fatalf("no-op faults run diverged from fault-free run:\n  got:\n%s\n  want:\n%s", got, want)
	}
}

// TestExactDSeqUsesWitness: -exact-d -seq must evaluate along the verified
// witness forest and agree with the distributed exact run.
func TestExactDSeqUsesWitness(t *testing.T) {
	g, _ := gen.BoundedTreedepth(10, 2, 0.5, 47)
	text := graphText(t, g)
	seqOut, _, err := runDMC(t, []string{"-problem", "count-perfect-matchings", "-exact-d", "-seq"}, text)
	if err != nil {
		t.Fatal(err)
	}
	distOut, _, err := runDMC(t, []string{"-problem", "count-perfect-matchings", "-exact-d"}, text)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(out, prefix string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				return line
			}
		}
		t.Fatalf("no %q line in:\n%s", prefix, out)
		return ""
	}
	if s, d := pick(seqOut, "result:"), pick(distOut, "result:"); s != d {
		t.Fatalf("seq witness run disagrees with distributed run: %q vs %q", s, d)
	}
	if s, d := pick(seqOut, "treedepth:"), pick(distOut, "treedepth:"); s != d {
		t.Fatalf("treedepth lines disagree: %q vs %q", s, d)
	}
}

// TestTraceStreams: -trace FILE writes NDJSON there; -trace - moves the
// report to stderr.
func TestTraceStreams(t *testing.T) {
	g := gen.Path(6)
	text := graphText(t, g)
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	out, _, err := runDMC(t, []string{"-problem", "acyclic", "-d", "3", "-trace", path}, text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "congest: rounds=") {
		t.Fatalf("report missing from stdout:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(data)) == 0 || !bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		t.Fatalf("trace file does not look like NDJSON: %q", data[:min(len(data), 80)])
	}

	stdout, stderr, err := runDMC(t, []string{"-problem", "acyclic", "-d", "3", "-trace", "-"}, text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "congest: rounds=") {
		t.Fatalf("report must move to stderr with -trace -:\n%s", stderr)
	}
	if !strings.HasPrefix(strings.TrimSpace(stdout), "{") {
		t.Fatalf("stdout must carry the NDJSON stream:\n%s", stdout)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRejectedRunCreatesNoTraceFile: flag validation runs before the trace
// file is created, so a rejected invocation leaves nothing behind.
func TestRejectedRunCreatesNoTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if _, _, err := runDMC(t, []string{"-problem", "acyclic", "-seq", "-trace", path}, graphText(t, gen.Path(4))); err == nil {
		t.Fatal("-seq -trace must be rejected")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rejected run created the trace file (stat err = %v)", err)
	}
}

// TestHelpExitStatus runs main in a child process: -h prints the usage and
// exits 0 with no error line, an unknown flag prints the usage and the
// error and exits 1.
func TestHelpExitStatus(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arg     string
		code    int
		errLine string
	}{
		{"-h", 0, ""},
		{"-no-such-flag", 1, "dmc: flag provided but not defined: -no-such-flag"},
	} {
		var stderr bytes.Buffer
		cmd := &exec.Cmd{Path: exe, Args: []string{"dmc", tc.arg}, Stderr: &stderr}
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%s: %v", tc.arg, err)
			}
			code = exit.ExitCode()
		}
		if code != tc.code {
			t.Errorf("dmc %s exited %d, want %d; stderr:\n%s", tc.arg, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "Usage of dmc:") {
			t.Errorf("dmc %s: no usage on stderr:\n%s", tc.arg, stderr.String())
		}
		var errLine string
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "dmc: ") {
				errLine = line
			}
		}
		if errLine != tc.errLine {
			t.Errorf("dmc %s: error line %q, want %q", tc.arg, errLine, tc.errLine)
		}
	}
}
