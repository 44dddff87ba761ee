package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotAlloc turns the repo's bench-only "0 allocs/op" invariant into a
// lint gate. A function whose doc comment carries a `//hot:noalloc`
// directive declares its body a hot region: the compiler's escape
// analysis must prove no value in it escapes to the heap. The analyzer
// re-runs the compiler with `-gcflags=<pkg>=-m` for each package that
// declares a region (the build cache replays the diagnostics, so repeat
// runs are cheap) and reports every "escapes to heap" / "moved to heap"
// diagnostic that lands inside a region.
//
// This is deliberately the compiler's own verdict, not a reimplementation
// of escape analysis: if gc says a line allocates, the bench gate would
// eventually say the same thing — at merge time instead of review time.
// Intentional allocations inside a hot region (error paths, one-time
// growth) are suppressed with //lint:allow hotalloc on the line.
//
// Because it shells out to `go build`, HotAlloc is not in the default
// AllModule catalog; the driver runs it behind -hot (`make lint-hot`).
var HotAlloc = &ModuleAnalyzer{
	Name: "hotalloc",
	Doc:  "//hot:noalloc regions must be free of compiler-reported heap escapes",
	Contract: `A function whose doc comment contains //hot:noalloc declares its body
an allocation-free region: the gc compiler's escape analysis (re-run via
go build -gcflags=<pkg>=-m; cached builds replay diagnostics) must report
no "escapes to heap"/"moved to heap" inside it. Annotated in this repo:
the DES scheduler hot path, obs.SpanRing record paths, journal
Lane.Record, and the ticket text path (tickets Notice.AppendFormat and
Parse) — the paths whose 0 allocs/op invariant benchmarks or tests check.
Intentional cold-path allocations take //lint:allow hotalloc on the line.
Runs behind dcnrlint -hot / make lint-hot because it shells out to the
compiler. Example fixture: internal/analyzers/testdata/hotallocmod/`,
	Run: runHotAlloc,
}

// HotDirective marks a function body as a no-allocation region when it
// appears in the function's doc comment.
const HotDirective = "//hot:noalloc"

// hotRegion is one annotated function body, in file-coordinate form so
// compiler diagnostics can be matched against it.
type hotRegion struct {
	file       string // absolute, cleaned path
	start, end int    // body line span, inclusive
	fn         string
}

func runHotAlloc(pass *ModulePass) error {
	m := pass.Mod
	regions := make(map[string][]hotRegion) // package path → regions
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasHotDirective(fd) {
					continue
				}
				start := m.Fset.Position(fd.Body.Lbrace)
				end := m.Fset.Position(fd.Body.Rbrace)
				regions[pkg.Path] = append(regions[pkg.Path], hotRegion{
					file:  filepath.Clean(start.Filename),
					start: start.Line,
					end:   end.Line,
					fn:    funcDisplayName(fd),
				})
			}
		}
	}
	if len(regions) == 0 {
		return nil
	}

	paths := make([]string, 0, len(regions))
	for p := range regions {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	for _, pkgPath := range paths {
		diags, err := escapeDiagnostics(m.Dir, pkgPath)
		if err != nil {
			return err
		}
		for _, d := range diags {
			for _, r := range regions[pkgPath] {
				if d.file != r.file || d.line < r.start || d.line > r.end {
					continue
				}
				pass.reportAt(token.Position{Filename: d.file, Line: d.line, Column: d.col},
					"heap allocation in //hot:noalloc region %s: %s (restructure to keep it on the stack, or //lint:allow hotalloc for an intentional cold path)",
					r.fn, d.msg)
				break
			}
		}
	}
	return nil
}

func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, HotDirective)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return "(" + typeExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func typeExprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return "*" + typeExprString(v.X)
	case *ast.IndexExpr:
		return typeExprString(v.X)
	}
	return "?"
}

// escapeDiag is one parsed compiler diagnostic.
type escapeDiag struct {
	file      string
	line, col int
	msg       string
}

// escapeLine matches `path/to/file.go:12:34: message`.
var escapeLine = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

// escapeDiagnostics compiles one package with -m and returns its
// heap-escape diagnostics with absolute file paths.
func escapeDiagnostics(dir, pkgPath string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags="+pkgPath+"=-m", pkgPath)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m %s: %v\n%s", pkgPath, err, out)
	}
	// The compiler prints paths relative to the working directory; region
	// spans come from the FileSet, which holds absolute paths.
	absDir, err := filepath.Abs(dir)
	if err != nil {
		absDir = dir
	}
	var diags []escapeDiag
	for _, line := range strings.Split(string(out), "\n") {
		mt := escapeLine.FindStringSubmatch(line)
		if mt == nil {
			continue
		}
		msg := mt[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := mt[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(absDir, file)
		}
		ln, _ := strconv.Atoi(mt[2])
		col, _ := strconv.Atoi(mt[3])
		diags = append(diags, escapeDiag{file: filepath.Clean(file), line: ln, col: col, msg: msg})
	}
	return diags, nil
}
