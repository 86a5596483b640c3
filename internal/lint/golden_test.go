package lint

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// expectation is one `// want <rule>` marker from a testdata file.
type expectation struct {
	file string
	line int
	rule string
}

// collectWants scans a loaded package for `// want <rule>` markers.
func collectWants(p *Package) []expectation {
	var wants []expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				wants = append(wants, expectation{
					file: pos.Filename,
					line: pos.Line,
					rule: strings.TrimSpace(rest),
				})
			}
		}
	}
	return wants
}

// The golden corpus loads once per test binary: one `go list` pass, one
// type-check, one analysis run shared by every golden test — the same
// sharing Load gives dinerlint itself.
var (
	goldenOnce  sync.Once
	goldenProg  *Program
	goldenDiags []Diagnostic
	goldenErr   error
)

func golden(t *testing.T) (*Program, []Diagnostic) {
	t.Helper()
	goldenOnce.Do(func() {
		goldenProg, goldenErr = Load("testdata/src", "./...")
		if goldenErr == nil {
			goldenDiags = RunAll(goldenProg, Analyzers())
		}
	})
	if goldenErr != nil {
		t.Fatalf("Load testdata: %v", goldenErr)
	}
	return goldenProg, goldenDiags
}

// goldenPkg finds one testdata package by directory name and returns it
// with the diagnostics reported against its files.
func goldenPkg(t *testing.T, name string) (*Package, []Diagnostic) {
	t.Helper()
	prog, diags := golden(t)
	for _, p := range prog.Pkgs {
		if strings.HasSuffix(p.Path, "/"+name) || p.Path == name {
			var mine []Diagnostic
			for _, d := range diags {
				if prog.OwnerOf(d.File) == p.Path {
					mine = append(mine, d)
				}
			}
			return p, mine
		}
	}
	t.Fatalf("testdata package %q not loaded", name)
	return nil, nil
}

// TestGoldenViolations checks that every seeded violation is reported at
// exactly its marker line, and nothing else is.
func TestGoldenViolations(t *testing.T) {
	for _, name := range []string{
		"determbad", "edgebad", "lockbad",
		"lockorderbad", "spanorderbad", "leasebad",
	} {
		t.Run(name, func(t *testing.T) {
			p, diags := goldenPkg(t, name)

			got := make(map[string]int)
			for _, d := range diags {
				if d.Line <= 0 || d.Col <= 0 {
					t.Errorf("diagnostic without a position: %+v", d)
				}
				got[fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Rule)]++
			}
			want := make(map[string]int)
			for _, w := range collectWants(p) {
				want[fmt.Sprintf("%s:%d:%s", w.file, w.line, w.rule)]++
			}
			if len(want) == 0 {
				t.Fatal("no // want markers found; bad testdata")
			}
			for k := range want {
				if got[k] == 0 {
					t.Errorf("missing diagnostic %s", k)
				}
			}
			for k := range got {
				if want[k] == 0 {
					t.Errorf("unexpected diagnostic %s", k)
				}
			}
		})
	}
}

// TestGoldenClean checks the clean counterparts produce no findings.
func TestGoldenClean(t *testing.T) {
	for _, name := range []string{
		"determclean", "edgeclean", "lockclean",
		"lockorderclean", "leaseclean",
	} {
		t.Run(name, func(t *testing.T) {
			_, diags := goldenPkg(t, name)
			for _, d := range diags {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		})
	}
}

// TestGoldenExactPositions pins a few full positions (file:line:col) so
// column drift is caught too.
func TestGoldenExactPositions(t *testing.T) {
	_, diags := goldenPkg(t, "lockbad")
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%d", d.Line, d.Col))
	}
	sort.Strings(got)
	want := []string{"15:9", "22:2", "30:9"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("lockbad positions: got %v, want %v", got, want)
	}
}

// TestGoldenCycleWitness pins the lockorder cycle diagnostic's witness
// path: the message must name every edge of the seeded cycle with its
// acquisition site.
func TestGoldenCycleWitness(t *testing.T) {
	_, diags := goldenPkg(t, "lockorderbad")
	var cycle *Diagnostic
	for i, d := range diags {
		if d.Rule == "lockorder" && strings.Contains(d.Message, "lock-order cycle") {
			cycle = &diags[i]
			break
		}
	}
	if cycle == nil {
		t.Fatal("no lock-order cycle diagnostic reported for lockorderbad")
	}
	for _, frag := range []string{"A.mu", "B.mu", "C.mu", "cycle.go:", "→"} {
		if !strings.Contains(cycle.Message, frag) {
			t.Errorf("cycle witness missing %q:\n%s", frag, cycle.Message)
		}
	}
	// Every edge of the witness carries a site: arrows and sites pair up.
	if arrows, sites := strings.Count(cycle.Message, "→"), strings.Count(cycle.Message, "cycle.go:"); sites < arrows {
		t.Errorf("cycle witness has %d edges but only %d sites:\n%s", arrows, sites, cycle.Message)
	}
}

// TestRepoClean is the meta-test: the suite must report zero findings on
// the repository itself.
func TestRepoClean(t *testing.T) {
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load repo: %v", err)
	}
	if len(prog.Pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(prog.Pkgs))
	}
	diags := RunAll(prog, Analyzers())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	// Zero findings only vouches for the deterministic-scope rules where
	// the scoped packages were actually loaded — internal/coord above
	// all: it is the code both drivers run.
	loaded := make(map[string]bool, len(prog.Pkgs))
	for _, p := range prog.Pkgs {
		loaded[p.Path] = true
	}
	for path := range deterministicPkgs {
		if !loaded[path] {
			t.Errorf("deterministic-scope package %s was not loaded", path)
		}
	}
	if !deterministicPkgs["mcdp/internal/coord"] {
		t.Error("mcdp/internal/coord is not in deterministic scope")
	}
}
