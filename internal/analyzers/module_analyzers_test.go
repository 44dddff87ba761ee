package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func moduleDiags(t *testing.T, rel string, list []*ModuleAnalyzer) []Diagnostic {
	t.Helper()
	m := loadFixtureModule(t, rel)
	diags, err := m.Analyze(list)
	if err != nil {
		t.Fatalf("analyzing %s: %v", rel, err)
	}
	return diags
}

func TestSimTaintBadFixture(t *testing.T) {
	diags := moduleDiags(t, "simtaint/bad", []*ModuleAnalyzer{SimTaint})
	assertDiags(t, diags, []string{
		"bad.go:18:2 simtaint",  // wall taint through locals into Lane.Record
		"bad.go:30:2 simtaint",  // wall taint via the stamp() helper
		"bad.go:40:2 simtaint",  // tainted call into the sinkWrapper derived sink
		"bad.go:51:16 simtaint", // map-order taint into Store.Add
	})
	if !diagsMention(diags, "wall-clock") {
		t.Errorf("wall diagnostics should name the taint kind: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "map-iteration-ordered") {
		t.Errorf("the Store.Add diagnostic should name map-order taint: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "sinkWrapper") {
		t.Errorf("the derived-sink diagnostic should name the wrapper chain: %q", diagKeys(diags))
	}
}

func TestSimTaintGoodFixture(t *testing.T) {
	assertDiags(t, moduleDiags(t, "simtaint/good", []*ModuleAnalyzer{SimTaint}), nil)
}

// TestSimTaintRegression is the seeded-mutation proof: the package is
// outside simdeterminism's import-scope, so the old syntactic analyzer
// reports nothing, while the taint engine follows the wall-clock value
// through two helpers into the journal encoder.
func TestSimTaintRegression(t *testing.T) {
	pkg := loadFixture(t, "simtaint/regression")
	assertDiags(t, pkg.Analyze([]*Analyzer{SimDeterminism}), nil)

	diags := moduleDiags(t, "simtaint/regression", []*ModuleAnalyzer{SimTaint})
	assertDiags(t, diags, []string{
		"regression.go:29:2 simtaint",
	})
	if !diagsMention(diags, "Record") {
		t.Errorf("the diagnostic should name the journal sink: %q", diagKeys(diags))
	}
}

// TestSimTaintSweepEmitterSink: the sink entry for sweep's ordered stream
// emitter fires on a wall-clock value in an emitted chunk, and only there.
func TestSimTaintSweepEmitterSink(t *testing.T) {
	const rel = "simtaint/sweepsink"
	pkg := loadFixtureAs(t, rel, "dcnr/internal/sweep")
	m := NewModule(filepath.Join("testdata", "src", rel), []*Package{pkg})
	diags, err := m.Analyze([]*ModuleAnalyzer{SimTaint})
	if err != nil {
		t.Fatal(err)
	}
	assertDiags(t, diags, []string{"emit.go:27:9 simtaint"})
	if !diagsMention(diags, "wall-clock") {
		t.Errorf("the emit diagnostic should name wall-clock taint: %q", diagKeys(diags))
	}
}

// TestTaintSinksExist keeps the sink table honest: every entry names a
// method declared in its package's source with the tainted argument in
// range, so renaming a sink cannot silently retire it.
func TestTaintSinksExist(t *testing.T) {
	for _, s := range taintSinks {
		dir := filepath.Join("..", "..", strings.TrimPrefix(s.pkg, "dcnr/"))
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", s.pkg, err)
		}
		found := false
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Recv == nil || fd.Name.Name != s.name {
						continue
					}
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.Name == s.recv && fd.Type.Params.NumFields() > s.arg {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("taint sink %s.(%s).%s arg %d: no such method", s.pkg, s.recv, s.name, s.arg)
		}
	}
}

func TestLockFlowBadFixture(t *testing.T) {
	// A per-method lexical check sees nothing here: the helper claims its
	// caller locks, the alias defeats the syntax match, and the
	// conditional lock fools the lexical scan.
	diags := moduleDiags(t, "lockflow/bad", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"bad.go:30:2 lockflow",       // helperB, reached via Submit -> helperA
		"bad.go:37:2 lockflow",       // aliased simulator pointer
		"bad.go:48:2 lockflow",       // conditional lock, must-join says unheld
		"bad_serve.go:25:2 lockflow", // Register in helper, reached via Mount -> mount
		"bad_serve.go:32:9 lockflow", // aliased server pointer, unlocked Start
	})
	if !diagsMention(diags, "Submit -> helperA -> helperB") {
		t.Errorf("the helperB diagnostic should carry the unlocked caller chain: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "Mount -> mount") {
		t.Errorf("the Register diagnostic should carry the unlocked caller chain: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "serve.Server.Start") {
		t.Errorf("the Start diagnostic should name the serve mutator: %q", diagKeys(diags))
	}
}

// TestHeapLockBadFixture covers the single-method heap-lock cases: a
// mutation before Lock, after Unlock, and a Reset with no lock at all,
// each an unlocked path of length one that lockflow must flag.
func TestHeapLockBadFixture(t *testing.T) {
	diags := moduleDiags(t, "lockflow/local_bad", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"bad.go:22:2 lockflow", // sim.After before Lock
		"bad.go:33:2 lockflow", // sim.Run after Unlock
		"bad.go:39:2 lockflow", // sim.Reset without the lock
	})
	if !diagsMention(diags, "des.Simulator.After") || !diagsMention(diags, "des.Simulator.Run") ||
		!diagsMention(diags, "des.Simulator.Reset") {
		t.Errorf("diagnostics should name the mutating method: %q", diagKeys(diags))
	}
}

func TestLockFlowGoodFixture(t *testing.T) {
	assertDiags(t, moduleDiags(t, "lockflow/good", []*ModuleAnalyzer{LockFlow}), nil)
}

// TestHeapLockGoodFixture pins single-method discipline as clean: deferred
// and explicit unlocks around the mutations, plus an uncalled "caller
// holds mu" helper.
func TestHeapLockGoodFixture(t *testing.T) {
	assertDiags(t, moduleDiags(t, "lockflow/local_good", []*ModuleAnalyzer{LockFlow}), nil)
}

// TestLockFlowRegression reintroduces the old Engine.Submit race two
// calls deep behind a "caller holds mu" helper; lockflow names the
// unlocked path. The dynamic counterpart is
// remediation.TestStatsConsistentUnderConcurrentSubmit, which the tier-1
// gate runs under the race detector.
func TestLockFlowRegression(t *testing.T) {
	diags := moduleDiags(t, "lockflow/regression", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"regression.go:35:2 lockflow",
	})
	if !diagsMention(diags, "Submit -> schedule -> enqueue") {
		t.Errorf("the diagnostic should carry the Submit -> schedule -> enqueue path: %q", diagKeys(diags))
	}
}

// TestHeapLockRegressionFixtureFlagged reintroduces the same race in its
// original one-method shape: the heap mutated right after mu.Unlock.
func TestHeapLockRegressionFixtureFlagged(t *testing.T) {
	diags := moduleDiags(t, "lockflow/local_regression", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"regression.go:30:2 lockflow", // sim.After after mu.Unlock — the original bug
	})
	if !diagsMention(diags, "corrupts the event heap") {
		t.Errorf("diagnostic should explain the race: %q", diagKeys(diags))
	}
}

func TestModuleByName(t *testing.T) {
	for _, a := range append([]*ModuleAnalyzer{HotAlloc}, AllModule...) {
		if ModuleByName(a.Name) != a {
			t.Errorf("ModuleByName(%q) did not return the analyzer", a.Name)
		}
		if a.Contract == "" {
			t.Errorf("%s needs a Contract for -explain", a.Name)
		}
	}
	if ModuleByName("nope") != nil {
		t.Errorf("ModuleByName on unknown name should be nil")
	}
	for _, a := range All {
		if a.Contract == "" {
			t.Errorf("%s needs a Contract for -explain", a.Name)
		}
	}
}
