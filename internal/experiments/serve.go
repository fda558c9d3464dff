package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/serve"
)

// The serve scenario (S4) measures the dmcd daemon end to end: an
// in-process HTTP server answers a mixed closed-loop query trace (decision,
// optimization, and counting problems over varied graph families, both
// distributed and sequential mode) from several concurrent clients. Every
// response is checked against a one-shot core solve of the same query, and
// the measured window reports throughput, latency percentiles, and the
// warm cross-request cache hit-rate. The claims under test: the daemon
// sustains >= 1000 queries/sec on the mixed trace, the warm hit-rate
// clears 50%, and answers never diverge from one-shot runs. cmd/bench
// serializes the result as BENCH_serve.json.

// ServeQuery is one query type of the trace: a fixed (graph, problem,
// mode) triple with its expected one-shot answer.
type ServeQuery struct {
	Name    string `json:"name"`
	Family  string `json:"family"`
	N       int    `json:"n"`
	Problem string `json:"problem"`
	Mode    string `json:"mode"`
	D       int    `json:"d"`

	// Measured-window accounting.
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`

	body []byte
	want *core.Solution
}

// ServeCache is one shared cache's end-of-trace counters.
type ServeCache struct {
	Key            string  `json:"key"`
	Classes        int     `json:"classes"`
	ComposeEntries int     `json:"compose_entries"`
	ComposeHitRate float64 `json:"compose_hit_rate"`
	LookupHitRate  float64 `json:"lookup_hit_rate"`
	Evictions      int64   `json:"evictions"`
}

// ServeReport is the BENCH_serve.json document.
type ServeReport struct {
	Harness    string `json:"harness"`
	Quick      bool   `json:"quick"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`

	WarmupQueries   int     `json:"warmup_queries"`
	MeasuredQueries int     `json:"measured_queries"`
	DurationMS      float64 `json:"duration_ms"`
	ThroughputQPS   float64 `json:"throughput_qps"`
	P50Ms           float64 `json:"p50_ms"`
	P90Ms           float64 `json:"p90_ms"`
	P99Ms           float64 `json:"p99_ms"`
	MaxMs           float64 `json:"max_ms"`

	// WarmHitRate is the shared caches' lookup hit-rate over the measured
	// window only (hits after warmup / lookups after warmup).
	WarmHitRate float64 `json:"warm_hit_rate"`

	// Mismatches counts responses that diverged from the one-shot solve of
	// the same query; anything but 0 is a correctness bug.
	Mismatches int `json:"mismatches"`
	// Errors counts non-200 responses (admission rejections included);
	// the closed-loop trace must see none.
	Errors int `json:"errors"`

	Queries []ServeQuery `json:"queries"`
	Caches  []ServeCache `json:"caches"`
}

// servePair is one (family, problem) combination of the trace.
type servePair struct {
	famName string
	g       *graph.Graph
	d       int
	problem string
	mode    string
}

// serveCatalog builds the query mix: graph families × problems × modes.
// The mix is tuned for a single-box load test: every query's warm
// one-shot cost stays around a millisecond, so the measured throughput
// reflects daemon overhead and cache reuse rather than raw solver time.
// Subset-tracking predicates (vertex cover, independent set) are kept off
// the path family, whose DFS elimination tree is a chain on which such
// predicates are exponential in sequential mode — a property of
// Algorithm 1 on deep trees, not of the daemon under test.
func serveCatalog(quick bool) ([]*ServeQuery, error) {
	sizes := []int{8, 10, 12}
	if quick {
		sizes = []int{8, 10}
	}
	var pairs []servePair
	for i, n := range sizes {
		g, _ := gen.BoundedTreedepth(n, 3, 0.35, int64(9100+i))
		gen.AssignRandomWeights(g, 9, int64(9200+i))
		name := fmt.Sprintf("td3-n%d", n)
		// A sparse sample of the cross product keeps the mix varied
		// without ballooning the catalog; the CONGEST rows stay on the
		// smaller graphs to keep the trace's mean service time low.
		switch i % 3 {
		case 0:
			pairs = append(pairs,
				servePair{name, g, 3, "acyclic", "dist"},
				servePair{name, g, 3, "min-vertex-cover", "seq"},
			)
		case 1:
			pairs = append(pairs,
				servePair{name, g, 3, "2-colorable", "dist"},
				servePair{name, g, 3, "count-perfect-matchings", "seq"},
			)
		default:
			pairs = append(pairs,
				servePair{name, g, 3, "min-vertex-cover", "seq"},
				servePair{name, g, 3, "count-perfect-matchings", "seq"},
			)
		}
	}
	// td(Star) = 2 and td(P_6) = 3, so both families get real verdicts.
	star, path := gen.Star(9), gen.Path(6)
	pairs = append(pairs,
		servePair{"star", star, 2, "acyclic", "dist"},
		servePair{"star", star, 2, "min-vertex-cover", "seq"},
		servePair{"path", path, 3, "2-colorable", "dist"},
		servePair{"path", path, 3, "count-perfect-matchings", "seq"},
	)

	var queries []*ServeQuery
	for _, p := range pairs {
		prob, err := core.Lookup(p.problem)
		if err != nil {
			return nil, err
		}
		var want *core.Solution
		if p.mode == "seq" {
			want, err = core.SolveSequential(p.g, prob)
		} else {
			want, err = core.SolveDistributed(p.g, prob, p.d, congest.Options{Parallel: true})
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.famName, p.problem, err)
		}
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, p.g); err != nil {
			return nil, err
		}
		req := serve.CheckRequest{Graph: text.String(), Problem: p.problem, Mode: p.mode, D: p.d}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		queries = append(queries, &ServeQuery{
			Name: p.famName + "/" + p.problem, Family: p.famName, N: p.g.NumVertices(),
			Problem: p.problem, Mode: p.mode, D: p.d,
			body: body, want: want,
		})
	}
	return queries, nil
}

// matches compares a daemon answer against the one-shot solution.
func (q *ServeQuery) matches(resp serve.CheckResponse) bool {
	w := q.want
	if resp.TdExceeded != w.TdExceeded || resp.Accepted != w.Accepted ||
		resp.Found != w.Found || resp.Weight != w.Weight || resp.Count != w.Count {
		return false
	}
	if q.Mode == "dist" {
		if resp.Rounds != w.Stats.Rounds || resp.Messages != w.Stats.Messages ||
			resp.Bits != w.Stats.Bits || resp.MaxMsgBits != w.Stats.MaxMsgBits {
			return false
		}
	}
	return true
}

// lookupTraffic sums every cache's hit/miss counters.
func lookupTraffic(st serve.StatsResponse) (hits, total int64) {
	for _, c := range st.Caches {
		h := c.ComposeHits + c.AcceptHits + c.SelectionHits + c.DecodeHits
		m := c.ComposeMisses + c.AcceptMisses + c.SelectionMisses + c.DecodeMisses
		hits += h
		total += h + m
	}
	return hits, total
}

// ServeSweep runs the S4 scenario: warmup, then a timed closed-loop window.
func ServeSweep(quick bool) (*ServeReport, error) {
	queries, err := serveCatalog(quick)
	if err != nil {
		return nil, err
	}

	clients := runtime.GOMAXPROCS(0)
	if clients < 2 {
		clients = 2
	}
	if clients > 8 {
		clients = 8
	}
	measure := 4 * time.Second
	if quick {
		measure = 1200 * time.Millisecond
	}

	srv := serve.New(serve.Options{MaxConcurrent: clients, QueueDepth: 4 * clients})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	httpc := ts.Client()
	if tr, ok := httpc.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = clients
	}

	type sample struct {
		query int
		ms    float64
		ok    bool
		match bool
	}
	post := func(qi int) sample {
		q := queries[qi]
		start := time.Now()
		resp, err := httpc.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(q.body))
		ms := float64(time.Since(start).Microseconds()) / 1000
		s := sample{query: qi, ms: ms}
		if err != nil {
			return s
		}
		defer resp.Body.Close()
		var out serve.CheckResponse
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
			return s
		}
		s.ok = true
		s.match = q.matches(out)
		return s
	}

	// Warmup: every client touches every query type once, populating the
	// shared caches.
	var wg sync.WaitGroup
	warmup := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range queries {
				post(qi)
			}
		}()
		warmup += len(queries)
	}
	wg.Wait()

	warmStats := srv.Stats()
	warmHits, warmTotal := lookupTraffic(warmStats)

	// Measured window: closed-loop clients cycling the mix, staggered so
	// they do not march in lockstep.
	results := make([][]sample, clients)
	deadline := time.Now().Add(measure)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			qi := c % len(queries)
			for time.Now().Before(deadline) {
				results[c] = append(results[c], post(qi))
				qi = (qi + 1) % len(queries)
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	endStats := srv.Stats()
	endHits, endTotal := lookupTraffic(endStats)

	report := &ServeReport{
		Harness:       "S4-serve",
		Quick:         quick,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Clients:       clients,
		WarmupQueries: warmup,
		DurationMS:    float64(elapsed.Microseconds()) / 1000,
	}
	var lat []float64
	sums := make([]float64, len(queries))
	for _, rs := range results {
		for _, s := range rs {
			report.MeasuredQueries++
			lat = append(lat, s.ms)
			queries[s.query].Count++
			sums[s.query] += s.ms
			switch {
			case !s.ok:
				report.Errors++
			case !s.match:
				report.Mismatches++
			}
		}
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	report.P50Ms, report.P90Ms, report.P99Ms = pct(0.50), pct(0.90), pct(0.99)
	if len(lat) > 0 {
		report.MaxMs = lat[len(lat)-1]
	}
	if elapsed > 0 {
		report.ThroughputQPS = float64(report.MeasuredQueries) / elapsed.Seconds()
	}
	if dt := endTotal - warmTotal; dt > 0 {
		report.WarmHitRate = float64(endHits-warmHits) / float64(dt)
	}
	for i, q := range queries {
		if q.Count > 0 {
			q.MeanMS = sums[i] / float64(q.Count)
		}
		report.Queries = append(report.Queries, *q)
	}
	for _, c := range endStats.Caches {
		report.Caches = append(report.Caches, ServeCache{
			Key: c.Key, Classes: c.Classes, ComposeEntries: c.ComposeEntries,
			ComposeHitRate: c.ComposeHitRate, LookupHitRate: c.LookupHitRate,
			Evictions: c.ComposeEvictions,
		})
	}
	if report.Mismatches > 0 {
		return report, fmt.Errorf("S4: %d responses diverged from one-shot solves", report.Mismatches)
	}
	if report.Errors > 0 {
		return report, fmt.Errorf("S4: %d requests failed", report.Errors)
	}
	return report, nil
}

// ServeTable renders the S4 report.
func ServeTable(rep *ServeReport) *Table {
	tab := &Table{
		ID:     "S4",
		Title:  "dmcd daemon under mixed closed-loop load",
		Claim:  "the daemon sustains >=1000 qps on the mixed trace with warm cache hit-rate >=50% and every answer bit-identical to a one-shot solve",
		Header: []string{"query", "mode", "n", "count", "mean_ms"},
	}
	for _, q := range rep.Queries {
		tab.AddRow(q.Name, q.Mode, q.N, q.Count, fmt.Sprintf("%.3f", q.MeanMS))
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("clients=%d window=%.0fms queries=%d throughput=%.0f qps",
			rep.Clients, rep.DurationMS, rep.MeasuredQueries, rep.ThroughputQPS),
		fmt.Sprintf("latency p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms",
			rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.MaxMs),
		fmt.Sprintf("warm cross-request cache hit-rate=%.1f%% mismatches=%d errors=%d",
			100*rep.WarmHitRate, rep.Mismatches, rep.Errors),
	)
	return tab
}

// S4Serve runs the serve scenario and renders its table.
func S4Serve(quick bool) (*Table, error) {
	rep, err := ServeSweep(quick)
	if err != nil {
		return nil, err
	}
	return ServeTable(rep), nil
}
