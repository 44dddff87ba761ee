package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockFlow targets the race class once fixed in the remediation engine: a
// struct that owns both a mutex and a *des.Simulator (the
// remediation.Engine shape) mutated the simulator's event heap outside
// the mutex, so concurrent Submit calls corrupted the heap. The des kernel
// is deliberately unsynchronized — any type that shares a simulator
// across goroutines owns the locking.
//
// A per-method check sees a mutation before Lock or after Unlock in the
// same method, but a mutation moved into a helper documented "caller
// holds mu" drops out of its view; whether every caller really holds the
// mutex goes unverified. LockFlow verifies it: a must-hold dataflow over
// each guarded method's CFG learns the lock state at every statement, and
// a fixpoint over the call graph propagates "this method can be entered
// with the mutex NOT held" (exported methods are unlocked
// entry points by convention; unexported ones inherit it from non-closure
// call sites where the caller had not locked). A heap mutation is
// reported only when an unlocked path actually reaches it — with the
// caller chain named in the message — so a correctly confined helper
// stays silent no matter what its //lint:allow comment claims.
//
// Scope and conventions (DESIGN §12): only methods of structs owning both
// a mutex and a guarded shared resource are analyzed. Two resource kinds
// are guarded: *des.Simulator — the shape that shares a simulator across
// goroutines (the PR-2 race class) — and *serve.Server, whose Register
// and Start calls belong to the single-goroutine construction phase
// (serve's lifecycle contract), so a struct sharing a Server behind a
// mutex must hold it around them. Plain functions driving a resource
// single-threaded (setup code, the sweep runner) are out of scope.
// Mutations are matched type-wise on ANY expression of a guarded type, so
// `sim := e.sim; sim.After(...)` is seen where a receiver-field syntax
// match is not. Function literals run inside the single-threaded
// DES event loop: call sites inside closures do not transmit unlocked
// reachability, and a helper called only from closures is exempt.
var LockFlow = &ModuleAnalyzer{
	Name: "lockflow",
	Doc:  "guarded-resource mutations (DES heap, serve.Server lifecycle) must be unreachable from call paths that do not hold the owning mutex",
	Contract: `On any struct owning both a mutex and a guarded shared resource
(*des.Simulator or *serve.Server), every call path from an unlocked entry
point (exported methods, by convention) to a resource mutation — a des
heap mutation (Schedule/After/Cancel/Every/Run/Step/Halt/Reset) or a
serve lifecycle call (Register/Start), on ANY expression of the guarded
type, aliases included — must acquire the mutex along the way. lockflow
follows calls between methods: a helper documented "caller holds mu" is
verified against
its actual callers and reported with the unlocked caller chain if the
claim is false. Call sites inside function literals are exempt (they run
on the single-threaded DES event loop). The one-method case — a mutation
before Lock or after Unlock in the same method — is the degenerate path.
Example fixture: internal/analyzers/testdata/src/lockflow/bad/bad.go`,
	Run: runLockFlow,
}

// heapMutators are the des.Simulator methods that touch the event heap or
// clock and are therefore unsafe to call concurrently. Reset joined the
// set with the pooled free-list kernel: it recycles every node, so a
// racing Reset corrupts not just the heap but the pool's generation
// counters.
var heapMutators = map[string]bool{
	"Schedule": true, "After": true, "Cancel": true, "Every": true,
	"Run": true, "Step": true, "Halt": true, "Reset": true,
}

const desPath = "dcnr/internal/des"

// serveMutators are the serve.Server methods confined to the single-
// goroutine construction phase: Register appends to an unsynchronized
// route table and Start transitions the lifecycle, so a struct sharing a
// Server across goroutines must confine both behind its mutex.
var serveMutators = map[string]bool{"Register": true, "Start": true}

// resourceKind is one guarded shared-resource field type: owning it
// together with a mutex puts a struct in lockflow's scope, and the
// mutator set names the calls that must be reached locked.
type resourceKind struct {
	pkgPath, typeName string
	mutators          map[string]bool
	consequence       string // why an unlocked mutation is a bug
}

var lockflowKinds = []resourceKind{
	{desPath, "Simulator", heapMutators, "concurrent entry corrupts the event heap"},
	{servePath, "Server", serveMutators, "Register and Start are unsynchronized construction-phase calls"},
}

// display renders the kind as it appears in diagnostics, e.g.
// "des.Simulator".
func (k *resourceKind) display() string {
	return k.pkgPath[strings.LastIndexByte(k.pkgPath, '/')+1:] + "." + k.typeName
}

// lockSite is one resource mutation inside a guarded method, with the
// lock state the must-hold analysis proved at that point.
type lockSite struct {
	call   *ast.CallExpr
	kind   *resourceKind
	method string // the mutator name on the guarded type
	held   bool
}

// lockInfo is one guarded method's lockflow summary.
type lockInfo struct {
	node      *CGNode
	guarded   *lockedResType
	mutexName string
	recvName  string
	sites     []lockSite
	// heldAt maps each outgoing call edge to whether the receiver's
	// mutex is (must-)held at the call site.
	heldAt map[*CGEdge]bool
	// unlockedReach: some call path enters this method with the mutex
	// not held; via is one witness chain of caller names.
	unlockedReach bool
	via           string
}

func runLockFlow(pass *ModulePass) error {
	m := pass.Mod
	g := m.Graph()

	guarded := make(map[*types.TypeName]*lockedResType)
	for _, pkg := range m.Pkgs {
		for _, t := range findLockedResTypes(pkg.Types) {
			guarded[t.named.Obj()] = t
		}
	}
	if len(guarded) == 0 {
		return nil
	}

	infos := make(map[*CGNode]*lockInfo)
	for _, n := range g.Order {
		if li := analyzeLockMethod(n, guarded); li != nil {
			infos[n] = li
		}
	}

	// Unlocked-reachability fixpoint. Exported methods seed it: external
	// callers hold nothing. An unheld, non-closure call edge between
	// guarded methods transmits it.
	for _, li := range infos {
		if li.node.Fn.Exported() {
			li.unlockedReach = true
			li.via = li.node.Fn.Name()
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Order {
			li := infos[n]
			if li == nil || !li.unlockedReach {
				continue
			}
			for _, e := range n.Out {
				if e.InClosure || li.heldAt[e] {
					continue
				}
				cal := infos[e.To]
				if cal == nil || cal.unlockedReach {
					continue
				}
				cal.unlockedReach = true
				cal.via = li.via + " -> " + cal.node.Fn.Name()
				changed = true
			}
		}
	}

	for _, n := range g.Order {
		li := infos[n]
		if li == nil || !li.unlockedReach {
			continue
		}
		for _, s := range li.sites {
			if s.held {
				continue
			}
			pass.Reportf(s.call.Pos(),
				"%s.%s runs without holding %s.%s on the unlocked path %s: %s (lock first, or keep every caller on a locked path)",
				s.kind.display(), s.method, li.recvName, li.mutexName, li.via, s.kind.consequence)
		}
	}
	return nil
}

// analyzeLockMethod computes one guarded method's mutation sites and
// per-call-edge lock state via the must-hold dataflow, or returns nil for
// functions that are not guarded-type methods.
func analyzeLockMethod(n *CGNode, guarded map[*types.TypeName]*lockedResType) *lockInfo {
	info := n.Pkg.Info
	if n.Decl.Recv == nil || len(n.Decl.Recv.List) != 1 || len(n.Decl.Recv.List[0].Names) == 0 {
		return nil
	}
	named := baseNamed(info.TypeOf(n.Decl.Recv.List[0].Type))
	if named == nil {
		return nil
	}
	t := guarded[named.Obj()]
	if t == nil {
		return nil
	}
	recvName := n.Decl.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return nil
	}
	li := &lockInfo{
		node: n, guarded: t, mutexName: firstKey(t.mutexes),
		recvName: recvName, heldAt: make(map[*CGEdge]bool),
	}

	cfg := n.CFG()
	flow := Flow[int]{
		Dir:      Forward,
		Boundary: func() int { return 0 },
		Init:     func() int { return 1 }, // top for a must-analysis
		Transfer: func(b *Block, in int) int {
			held := in != 0
			for _, nd := range b.Nodes {
				held = li.transferNode(nd, held, nil)
			}
			if held {
				return 1
			}
			return 0
		},
		Join:  func(a, b int) int { return a & b },
		Equal: func(a, b int) bool { return a == b },
	}
	heldIn := Solve(cfg, flow)

	siteOf := make(map[*ast.CallExpr]*CGEdge, len(n.Out))
	for _, e := range n.Out {
		siteOf[e.Site] = e
	}
	for _, b := range cfg.Blocks {
		held := heldIn[b] != 0
		for _, nd := range b.Nodes {
			held = li.transferNode(nd, held, func(call *ast.CallExpr, h bool) {
				if e, ok := siteOf[call]; ok {
					li.heldAt[e] = h
				}
				if kind, method, ok := resMutatorCall(info, call); ok {
					li.sites = append(li.sites, lockSite{call: call, kind: kind, method: method, held: h})
				}
			})
		}
	}
	return li
}

// transferNode threads the held flag through one CFG node, invoking visit
// (if non-nil) for every call expression outside function literals with
// the held state at that point. Deferred statements are skipped entirely:
// a deferred Unlock releases at return, so the lock stays held for the
// remainder of the body.
func (li *lockInfo) transferNode(nd ast.Node, held bool, visit func(*ast.CallExpr, bool)) bool {
	ast.Inspect(nd, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if field, method, ok := recvFieldCall(c, li.recvName); ok && li.guarded.mutexes[field] {
				switch method {
				case "Lock", "RLock":
					held = true
				case "Unlock", "RUnlock":
					held = false
				}
				return true
			}
			if visit != nil {
				visit(c, held)
			}
		}
		return true
	})
	return held
}

// resMutatorCall matches a call of a guarded-kind mutator on any
// expression of the guarded type — the receiver field, a local alias, a
// parameter — not just the recv.field.method syntax.
func resMutatorCall(info *types.Info, call *ast.CallExpr) (*resourceKind, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil, "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, "", false
	}
	for i := range lockflowKinds {
		k := &lockflowKinds[i]
		if named.Obj().Pkg().Path() == k.pkgPath && named.Obj().Name() == k.typeName &&
			k.mutators[sel.Sel.Name] {
			return k, sel.Sel.Name, true
		}
	}
	return nil, "", false
}

// lockedResType describes one struct owning both a mutex and a guarded
// resource.
type lockedResType struct {
	named     *types.Named
	mutexes   map[string]bool // field names of sync.Mutex/RWMutex type
	resFields map[string]bool // field names of a guarded resource pointer type
}

// findLockedResTypes scans the package scope for struct types declaring
// both a mutex field and a guarded-resource pointer field.
func findLockedResTypes(pkg *types.Package) []*lockedResType {
	var out []*lockedResType
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		t := &lockedResType{named: named, mutexes: map[string]bool{}, resFields: map[string]bool{}}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexType(f.Type()) {
				t.mutexes[f.Name()] = true
			}
			if isGuardedResPtr(f.Type()) {
				t.resFields[f.Name()] = true
			}
		}
		if len(t.mutexes) > 0 && len(t.resFields) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// isGuardedResPtr reports whether t is a pointer to any lockflow-guarded
// resource type.
func isGuardedResPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	for i := range lockflowKinds {
		k := &lockflowKinds[i]
		if named.Obj().Pkg().Path() == k.pkgPath && named.Obj().Name() == k.typeName {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

func baseNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// recvFieldCall matches calls of the form <recv>.<field>.<method>(...) and
// returns the field and method names.
func recvFieldCall(call *ast.CallExpr, recvName string) (field, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	inner, okSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okSel := ast.Unparen(inner.X).(*ast.Ident)
	if !okSel || id.Name != recvName {
		return "", "", false
	}
	return inner.Sel.Name, sel.Sel.Name, true
}

func firstKey(m map[string]bool) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
