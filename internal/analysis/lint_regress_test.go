package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// moduleRoot locates the real module tree from this package's directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	root := filepath.Dir(filepath.Dir(wd))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// TestModuleClean pins the PR-8 state: the full analyzer suite reports
// nothing on the shipped tree. Every finding the new analyzers surfaced was
// either fixed (the pooled-scratch ownership refactor, the requires-lock
// annotations) or suppressed with a reviewed reason; a regression in any of
// them reappears here.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root := moduleRoot(t)
	loader := analysis.NewLoader(root, "repro")
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("ModulePackages returned nothing")
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Errorf("load %s: %v", path, err)
			continue
		}
		diags, err := analysis.RunAnalyzers(pkg, analysis.Analyzers())
		if err != nil {
			t.Errorf("run on %s: %v", path, err)
			continue
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
}

// lintMutation undoes one real-code fix or suppression from this PR and
// names the diagnostic that must come back.
type lintMutation struct {
	name     string
	file     string // module-relative
	old, new string // textual surgery; old must occur exactly once
	pkg      string // package to re-analyze
	analyzer *analysis.Analyzer
	want     string // required diagnostic substring
}

// TestFixesAreLoadBearing proves each in-tree fix is what keeps the module
// clean: the mutated copy must still type-check (so the finding comes from
// the analyzer, not a loader error) and must produce the reverted finding.
func TestFixesAreLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-type-checks the module per mutation; skipped in -short mode")
	}
	root := moduleRoot(t)
	mutations := []lintMutation{
		{
			name: "lockwitness_annotation_removed",
			file: "internal/regular/cached.go",
			old:  "// ever called single-threaded).\n//\n//dmclint:requires-lock mu\nfunc (c *Cached) composeMissLocked",
			new:  "// ever called single-threaded).\nfunc (c *Cached) composeMissLocked",
			pkg:  "repro/internal/regular", analyzer: analysis.LockWitness,
			want: "no //dmclint:requires-lock annotation",
		},
		{
			name: "ctxflow_wait_suppression_removed",
			file: "internal/congest/engine.go",
			old:  "\t//lint:ignore dmclint/ctxflow workers drain a bounded batch; the engine polls ctx at the round barrier around each forEach\n\tp.wg.Wait()",
			new:  "\tp.wg.Wait()",
			pkg:  "repro/internal/congest", analyzer: analysis.CtxFlow,
			want: "blocks without a cancellation path",
		},
		{
			name: "gorolife_worker_suppression_removed",
			file: "internal/congest/engine.go",
			old:  "\t\t//lint:ignore dmclint/gorolife workers live for the pool's lifetime; close(tasks) ends them and forEach joins every batch through wg\n",
			new:  "",
			pkg:  "repro/internal/congest", analyzer: analysis.GoroLife,
			want: "no visible join",
		},
		{
			name: "poolpair_defer_separated",
			file: "internal/protocols/driver.go",
			old:  "pooled := slabPool.Get()\n\tdefer slabPool.Put(pooled)",
			new:  "pooled := slabPool.Get()\n\t_ = pooled\n\tdefer slabPool.Put(pooled)",
			pkg:  "repro/internal/protocols", analyzer: analysis.PoolPair,
			want: "not followed by",
		},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			tmp := t.TempDir()
			copyModule(t, root, tmp)
			target := filepath.Join(tmp, filepath.FromSlash(m.file))
			src, err := os.ReadFile(target)
			if err != nil {
				t.Fatalf("read %s: %v", m.file, err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("mutation anchor occurs %d times in %s, want 1", n, m.file)
			}
			mutated := strings.Replace(string(src), m.old, m.new, 1)
			if err := os.WriteFile(target, []byte(mutated), 0o644); err != nil {
				t.Fatalf("write %s: %v", m.file, err)
			}
			loader := analysis.NewLoader(tmp, "repro")
			pkg, err := loader.Load(m.pkg)
			if err != nil {
				t.Fatalf("mutated tree no longer type-checks: %v", err)
			}
			diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{m.analyzer})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			found := false
			for _, d := range diags {
				if strings.Contains(d.Message, m.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("reverting the fix did not resurface a %s finding matching %q; got %+v",
					m.analyzer.Name, m.want, diags)
			}
		})
	}
}

// copyModule copies the module's non-test Go sources and go.mod into dst,
// skipping VCS metadata and fixture trees.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
}
