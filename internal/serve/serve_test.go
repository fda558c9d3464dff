package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// edgeListText renders g in the wire format the daemon accepts.
func edgeListText(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// postCheck sends one check request and decodes the response.
func postCheck(t *testing.T, ts *httptest.Server, req CheckRequest) (CheckResponse, int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out CheckResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad response body %q: %v", buf.String(), err)
		}
	}
	return out, resp.StatusCode, buf.String()
}

// normalize renders a response for bit-identity comparison, with the
// wall-clock field stripped.
func normalize(r CheckResponse) string {
	r.ElapsedMS = 0
	return fmt.Sprintf("%+v", r)
}

// TestCheckMatchesOneShot: daemon answers must be bit-identical to one-shot
// core solves of the same query, and repeats against the warm shared cache
// must not change anything.
func TestCheckMatchesOneShot(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g, _ := gen.BoundedTreedepth(14, 3, 0.4, 42)
	gen.AssignRandomWeights(g, 9, 43)
	text := edgeListText(t, g)

	cases := []CheckRequest{
		{Graph: text, Problem: "acyclic", D: 3, Seed: 7},
		{Graph: text, Problem: "max-independent-set", D: 3},
		{Graph: text, Problem: "count-perfect-matchings", D: 3},
		{Graph: text, Problem: "min-vertex-cover", Mode: "seq"},
	}
	for _, req := range cases {
		req := req
		t.Run(req.Problem+"-"+req.Mode, func(t *testing.T) {
			prob, err := core.Lookup(req.Problem)
			if err != nil {
				t.Fatal(err)
			}
			var want *core.Solution
			if req.Mode == "seq" {
				want, err = core.SolveSequential(g, prob)
			} else {
				want, err = core.SolveDistributed(g, prob, 3, congest.Options{IDSeed: req.Seed, Parallel: true})
			}
			if err != nil {
				t.Fatal(err)
			}
			var first string
			for rep := 0; rep < 3; rep++ {
				got, code, raw := postCheck(t, ts, req)
				if code != http.StatusOK {
					t.Fatalf("rep %d: status %d: %s", rep, code, raw)
				}
				if got.Accepted != want.Accepted || got.Found != want.Found ||
					got.Weight != want.Weight || got.Count != want.Count || got.TdExceeded != want.TdExceeded {
					t.Fatalf("rep %d: verdict diverged from one-shot solve:\n  got  %+v\n  want %+v", rep, got, want)
				}
				if req.Mode != "seq" {
					if got.Rounds != want.Stats.Rounds || got.Messages != want.Stats.Messages ||
						got.Bits != want.Stats.Bits || got.MaxMsgBits != want.Stats.MaxMsgBits {
						t.Fatalf("rep %d: CONGEST accounting diverged:\n  got  %+v\n  want %+v", rep, got, want.Stats)
					}
				}
				if rep == 0 {
					first = normalize(got)
				} else if normalize(got) != first {
					t.Fatalf("rep %d: warm repeat diverged from cold answer:\n  got  %s\n  want %s", rep, normalize(got), first)
				}
			}
		})
	}

	// The warm repeats above must have hit the shared caches.
	st := srv.Stats()
	if len(st.Caches) != 4 {
		t.Fatalf("expected 4 shared caches, got %d", len(st.Caches))
	}
	var hits int64
	for _, c := range st.Caches {
		hits += c.AcceptHits + c.SelectionHits + c.DecodeHits + c.ComposeHits
	}
	if hits == 0 {
		t.Fatal("warm repeats produced no cross-request cache hits")
	}
	if st.Succeeded != 12 || st.Requests != 12 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestFaultsPathSelection: faults:false, a vacuous schedule, and an absent
// field must all take the uninjected (sharded parallel) path and agree
// bit-for-bit; only a schedule with effective rates installs the injector.
func TestFaultsPathSelection(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g, _ := gen.BoundedTreedepth(12, 3, 0.5, 77)
	text := edgeListText(t, g)

	variants := []string{
		fmt.Sprintf(`{"graph":%q,"problem":"acyclic","d":3}`, text),
		fmt.Sprintf(`{"graph":%q,"problem":"acyclic","d":3,"faults":false}`, text),
		fmt.Sprintf(`{"graph":%q,"problem":"acyclic","d":3,"faults":{"drop_rate":0,"crash_rate":0}}`, text),
		fmt.Sprintf(`{"graph":%q,"problem":"acyclic","d":3,"faults":{"reorder_rate":0.5,"reorder_window":0}}`, text),
		fmt.Sprintf(`{"graph":%q,"problem":"acyclic","d":3,"parallel":false}`, text),
	}
	var want string
	var wantResp CheckResponse
	for i, body := range variants {
		resp, err := ts.Client().Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got CheckResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d: status %d", i, resp.StatusCode)
		}
		if got.FaultsInjected {
			t.Fatalf("variant %d: vacuous faults must not install the injector", i)
		}
		if i == 0 {
			want = normalize(got)
			wantResp = got
		} else if normalize(got) != want {
			t.Fatalf("variant %d diverged:\n  got  %s\n  want %s", i, normalize(got), want)
		}
	}

	// A schedule with effective rates goes through injection + reliable
	// delivery and still produces the fault-free verdict.
	body := fmt.Sprintf(`{"graph":%q,"problem":"acyclic","d":3,"faults":{"seed":5,"drop_rate":0.1,"dup_rate":0.05}}`, text)
	resp, err := ts.Client().Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulty variant: status %d", resp.StatusCode)
	}
	if !got.FaultsInjected {
		t.Fatal("effective schedule must report faults_injected")
	}
	if got.Accepted != wantResp.Accepted || got.TdExceeded != wantResp.TdExceeded {
		t.Fatalf("faulty run verdict diverged: got %+v want %+v", got, wantResp)
	}
}

// TestRequestValidation: every malformed request gets a 4xx with a JSON
// error body, never a 500.
func TestRequestValidation(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := gen.Path(5)
	text := edgeListText(t, g)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad-json", `{"graph": `, http.StatusBadRequest},
		{"unknown-field", `{"graf":"x"}`, http.StatusBadRequest},
		{"no-problem", fmt.Sprintf(`{"graph":%q}`, text), http.StatusBadRequest},
		{"both-problem-and-formula", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","formula":"true"}`, text), http.StatusBadRequest},
		{"unknown-problem", fmt.Sprintf(`{"graph":%q,"problem":"nope"}`, text), http.StatusBadRequest},
		{"bad-formula", fmt.Sprintf(`{"graph":%q,"formula":"(("}`, text), http.StatusBadRequest},
		{"no-graph", `{"problem":"acyclic"}`, http.StatusBadRequest},
		{"bad-graph", `{"graph":"not a graph","problem":"acyclic"}`, http.StatusBadRequest},
		{"bad-mode", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"turbo"}`, text), http.StatusBadRequest},
		{"bad-d", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","d":-2}`, text), http.StatusBadRequest},
		{"faults-with-seq", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","faults":{"drop_rate":0.2}}`, text), http.StatusBadRequest},
		{"vacuous-faults-with-seq", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","faults":true}`, text), http.StatusBadRequest},
		{"seed-with-seq", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","seed":7}`, text), http.StatusBadRequest},
		{"workers-with-seq", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","workers":2}`, text), http.StatusBadRequest},
		{"parallel-with-seq", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","parallel":true}`, text), http.StatusBadRequest},
		{"negative-workers", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","workers":-1}`, text), http.StatusBadRequest},
		{"negative-workers-with-seq", fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","workers":-1}`, text), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/check", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body missing: err=%v body=%+v", err, e)
			}
		})
	}

	// A sequential request keeps accepting "d" (unused there) and an
	// explicit "parallel": false; a rejection names the JSON key.
	for _, body := range []string{
		fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","d":3}`, text),
		fmt.Sprintf(`{"graph":%q,"problem":"acyclic","mode":"seq","parallel":false}`, text),
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", body, resp.StatusCode)
		}
	}
	if _, code, raw := postCheck(t, ts, CheckRequest{Graph: text, Problem: "acyclic", Mode: "seq", Seed: 7}); code != http.StatusBadRequest ||
		!strings.Contains(raw, `\"seed\" applies to the CONGEST run`) {
		t.Fatalf("seed with seq: %d %s", code, raw)
	}

	// Method checks.
	if resp, err := ts.Client().Get(ts.URL + "/v1/check"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/check = %d, want 405", resp.StatusCode)
		}
	}
}

// TestAdmissionAndTimeout: a full queue returns 429 immediately; a request
// that cannot get a slot within the timeout returns 504; the solve-loop
// cancellation path also returns 504.
func TestAdmissionAndTimeout(t *testing.T) {
	srv := New(Options{MaxConcurrent: 1, QueueDepth: 1, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := gen.Path(4)
	req := CheckRequest{Graph: edgeListText(t, g), Problem: "acyclic", D: 2}

	// Occupy the only solve slot and fill the queue allowance (one running
	// plus one waiting): the next arrival must bounce.
	srv.sem <- struct{}{}
	srv.queued.Add(2)
	if _, code, _ := postCheck(t, ts, req); code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", code)
	}
	srv.queued.Add(-2)
	// Queue has room but the slot never frees: the wait times out.
	if _, code, _ := postCheck(t, ts, req); code != http.StatusGatewayTimeout {
		t.Fatalf("held slot: status %d, want 504", code)
	}
	<-srv.sem

	st := srv.Stats()
	if st.Rejected != 1 || st.Timeouts != 1 {
		t.Fatalf("counters after admission tests: %+v", st)
	}
}

// TestDrain: after StartDrain the health check and new work turn 503 while
// the stats endpoint stays readable.
func TestDrain(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d", resp.StatusCode)
	}

	srv.StartDrain()
	srv.StartDrain() // idempotent

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	g := gen.Path(3)
	if _, code, _ := postCheck(t, ts, CheckRequest{Graph: edgeListText(t, g), Problem: "acyclic"}); code != http.StatusServiceUnavailable {
		t.Fatalf("check during drain = %d, want 503", code)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("stats must report draining")
	}
}

// TestFaultsSpecJSON: the "faults" field accepts bools and schedule objects.
func TestFaultsSpecJSON(t *testing.T) {
	cases := []struct {
		in      string
		enabled bool
		quiet   bool
	}{
		{`false`, false, true},
		{`true`, true, true},
		{`{}`, true, true},
		{`{"drop_rate":0.2}`, true, false},
		{`{"enabled":false,"drop_rate":0.2}`, false, false},
		{`{"reorder_rate":0.9,"reorder_window":0}`, true, true},
		{`{"reorder_rate":0.9,"reorder_window":2}`, true, false},
	}
	for _, tc := range cases {
		var f FaultsSpec
		if err := json.Unmarshal([]byte(tc.in), &f); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if f.Enabled != tc.enabled {
			t.Fatalf("%s: Enabled = %v, want %v", tc.in, f.Enabled, tc.enabled)
		}
		if got := f.config().Quiet(); got != tc.quiet {
			t.Fatalf("%s: Quiet = %v, want %v", tc.in, got, tc.quiet)
		}
	}
	var f FaultsSpec
	if err := json.Unmarshal([]byte(`{"bogus":1}`), &f); err == nil {
		t.Fatal("unknown schedule field must error")
	}
}

// TestFormulaCacheLRU: formula caches are bounded; registered problems are
// never evicted.
func TestFormulaCacheLRU(t *testing.T) {
	srv := New(Options{MaxFormulas: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := gen.Cycle(5)
	text := edgeListText(t, g)
	if _, code, raw := postCheck(t, ts, CheckRequest{Graph: text, Problem: "acyclic", D: 3}); code != http.StatusOK {
		t.Fatalf("problem request: %d %s", code, raw)
	}
	formulas := []string{
		"exists x:V,y:V . adj(x,y)",
		"forall x:V . exists y:V . adj(x,y)",
		"~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)",
	}
	for _, f := range formulas {
		if _, code, raw := postCheck(t, ts, CheckRequest{Graph: text, Formula: f, D: 3}); code != http.StatusOK {
			t.Fatalf("formula %q: %d %s", f, code, raw)
		}
	}
	srv.mu.Lock()
	nFormula, nProblem := 0, 0
	for _, e := range srv.caches {
		if e.formula {
			nFormula++
		} else {
			nProblem++
		}
	}
	srv.mu.Unlock()
	if nFormula != 2 {
		t.Fatalf("formula caches = %d, want 2 (LRU cap)", nFormula)
	}
	if nProblem != 1 {
		t.Fatalf("problem caches = %d, want 1 (never evicted)", nProblem)
	}
}

// TestPredicateErrorsUnprocessable: a well-formed instance the predicate
// cannot evaluate — a count past 2^63, a class representative past the
// generic engine's limit — is answered 422 in both modes, never as a
// "td_exceeded" verdict. Both graphs have treedepth within the requested d.
func TestPredicateErrorsUnprocessable(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A hub with a pendant and 63 C4s hung off it: td = 4, 2^63 perfect
	// matchings.
	hub := graph.New(2 + 4*63)
	edges := [][2]int{{0, 1}}
	for a := 2; a < hub.NumVertices(); a += 4 {
		edges = append(edges, [2]int{a, a + 1}, [2]int{a + 1, a + 2}, [2]int{a + 2, a + 3}, [2]int{a + 3, a}, [2]int{0, a})
	}
	for _, e := range edges {
		if _, err := hub.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	bounded, _ := gen.BoundedTreedepth(200, 3, 0.3, 5)
	cases := []struct {
		name string
		req  CheckRequest
		want string
	}{
		{"count-overflow", CheckRequest{Graph: edgeListText(t, hub), Problem: "count-perfect-matchings", D: 4}, "table arithmetic overflow"},
		{"engine-limit", CheckRequest{Graph: edgeListText(t, bounded), Formula: "~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)", D: 3}, "engine limit exceeded"},
	}
	for _, tc := range cases {
		for _, mode := range []string{"dist", "seq"} {
			req := tc.req
			req.Mode = mode
			if mode == "seq" {
				req.D = 0
			}
			_, code, raw := postCheck(t, ts, req)
			if code != http.StatusUnprocessableEntity || !strings.Contains(raw, tc.want) {
				t.Errorf("%s/%s: status %d body %s, want 422 naming %q", tc.name, mode, code, raw, tc.want)
			}
		}
	}
}
