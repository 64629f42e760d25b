package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TaintSinks maps function FullNames to the contract surface their
// arguments feed. A nondeterministic value reaching a sink argument is a
// dettaint finding: artifact bytes, HTTP response bodies, and measure
// values must be pure functions of (corpus, seed, dim, bits). Tests may
// override the map to point at fixture sinks.
var TaintSinks = map[string]string{
	"anchor/internal/store.WriteBinary":         "artifact bytes",
	"anchor/internal/store.writeBinary":         "artifact bytes",
	"anchor/internal/store.SaveBinaryFile":      "artifact bytes",
	"(*anchor/internal/serve.Server).writeJSON": "the HTTP response encoding",
}

// TaintLaunder lists function FullNames that cut taint: their results
// are deterministic by construction regardless of how they are reached.
// Seeded RNG derivation and the ordered shard reducer are the sanctioned
// ways to turn parallelism and randomness back into reproducible values.
// Plain constructors like rand.New are deliberately absent — they
// propagate their argument's taint, so rand.New(rand.NewSource(seed))
// is clean while rand.New(rand.NewSource(time.Now().UnixNano())) stays
// tainted.
var TaintLaunder = map[string]bool{
	"anchor/internal/parallel.ShardRNG":  true,
	"anchor/internal/parallel.ShardSeed": true,
	"anchor/internal/parallel.Run":       true,
}

// TaintMeasurePackages lists packages whose function results are measure
// values: any function there whose return is tainted is reported even
// without a sink call, because measures feed the paper's tables
// directly.
var TaintMeasurePackages = []string{"anchor/internal/core"}

// DetTaint is the interprocedural nondeterminism-taint rule: values
// derived from the global RNG, the clock, the environment, or map
// iteration order must not flow — through any chain of calls — into
// artifact bytes, HTTP responses, or measure values. Goroutine
// completion order, the remaining nondeterminism source, is enforced at
// write sites by the fpreduce and sharedwrite rules.
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc: "tracks nondeterministic values (unseeded math/rand and " +
		"math/rand/v2, time.Now and friends, os.Getenv, map iteration " +
		"order) across function boundaries and flags any flow into " +
		"store.WriteBinary artifact bytes, serve response encoding, or " +
		"internal/core measure returns; parallel.ShardRNG/ShardSeed/Run " +
		"launder taint",
	RunModule: runDetTaint,
}

// taintFact is the per-function interprocedural summary: whether the
// function's results may carry nondeterminism, and the ultimate source
// when they do. Facts are cached per package keyed by export-data
// identity.
type taintFact struct {
	Tainted bool   `json:"tainted"`
	Via     string `json:"via,omitempty"`
}

// detTaintFactKind versions the cached fact format; bump when the
// summary computation changes.
const detTaintFactKind = "dettaint1"

func runDetTaint(mp *ModulePass) error {
	sums := taintSummaries(mp)
	for _, pkg := range mp.Pkgs {
		for _, fd := range funcDecls(pkg) {
			analyzeTaint(pkg, fd, sums, mp)
		}
	}
	return nil
}

// funcDecls returns the package's function declarations with bodies.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// declFullName resolves a function declaration to its FullName.
func declFullName(pkg *Package, fd *ast.FuncDecl) (string, bool) {
	obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return "", false
	}
	return obj.FullName(), true
}

// taintSummaries computes the module-wide fixed point of per-function
// taint facts. Packages with a valid fact-cache entry contribute their
// summaries as constants; only uncached packages iterate, and their
// results are saved for the next run. Taint is monotone (a fact never
// turns back off), so the iteration terminates.
func taintSummaries(mp *ModulePass) map[string]taintFact {
	sums := make(map[string]taintFact)
	cached := make(map[*Package]bool)
	for _, pkg := range mp.Pkgs {
		var m map[string]taintFact
		if mp.Facts.Load(detTaintFactKind, PackageFactKey(pkg), &m) {
			for k, v := range m {
				sums[k] = v
			}
			cached[pkg] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, pkg := range mp.Pkgs {
			if cached[pkg] {
				continue
			}
			for _, fd := range funcDecls(pkg) {
				name, ok := declFullName(pkg, fd)
				if !ok || TaintLaunder[name] {
					continue
				}
				fact := analyzeTaint(pkg, fd, sums, nil)
				if fact != sums[name] {
					sums[name] = fact
					changed = true
				}
			}
		}
	}
	for _, pkg := range mp.Pkgs {
		if cached[pkg] {
			continue
		}
		key := PackageFactKey(pkg)
		if key == "" {
			continue
		}
		m := make(map[string]taintFact)
		for _, fd := range funcDecls(pkg) {
			if name, ok := declFullName(pkg, fd); ok {
				m[name] = sums[name]
			}
		}
		mp.Facts.Save(detTaintFactKind, key, m)
	}
	return sums
}

// analyzeTaint runs the intra-function taint pass over one declaration:
// locals assigned from nondeterministic expressions become tainted, and
// taint is checked at sink-call arguments and return statements. With mp
// nil it only computes the function's summary (the fixed-point phase);
// with mp set it reports findings (the report phase).
func analyzeTaint(pkg *Package, fd *ast.FuncDecl, sums map[string]taintFact, mp *ModulePass) taintFact {
	info := pkg.TypesInfo
	vars := make(map[types.Object]string)

	// Body spans of range-over-map loops: appends inside them produce
	// order-tainted slices unless the slice is sorted afterwards.
	type span struct{ lo, hi token.Pos }
	var mapRanges []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			if t := info.Types[r.X].Type; t != nil && isMap(t) {
				mapRanges = append(mapRanges, span{r.Body.Pos(), r.Body.End()})
			}
		}
		return true
	})
	enclosingMapRange := func(p token.Pos) (token.Pos, bool) {
		for i := len(mapRanges) - 1; i >= 0; i-- {
			if s := mapRanges[i]; s.lo <= p && p <= s.hi {
				return s.hi, true
			}
		}
		return token.NoPos, false
	}

	// exprTaint reports whether the expression may carry a
	// nondeterministic value, and the ultimate source. Launder calls
	// prune their whole subtree.
	var exprTaint func(e ast.Expr) (string, bool)
	exprTaint = func(e ast.Expr) (string, bool) {
		var via string
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := CalleeName(info, n); ok {
					if TaintLaunder[name] {
						return false
					}
					if f := sums[name]; f.Tainted {
						via, found = f.Via, true
						return false
					}
				}
				if src, ok := sourceCall(info, n); ok {
					via, found = src, true
					return false
				}
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					if v, ok := vars[obj]; ok {
						via, found = v, true
						return false
					}
				}
			}
			return true
		})
		return via, found
	}

	taintLHS := func(targets []ast.Expr, via string) {
		for _, lhs := range targets {
			if obj := lhsObj(info, lhs); obj != nil {
				if _, had := vars[obj]; !had {
					vars[obj] = via
				}
			}
		}
	}
	// rhsTaint folds exprTaint with the map-iteration-order source: an
	// append inside a map range taints the target slice unless it is
	// sorted later in this function.
	rhsTaint := func(rhs []ast.Expr, pos token.Pos) (string, bool) {
		for _, e := range rhs {
			if via, ok := exprTaint(e); ok {
				return via, true
			}
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); !isID ||
				info.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			end, inRange := enclosingMapRange(pos)
			if !inRange {
				continue
			}
			if !sortedAfter(info, fd.Body, end, types.ExprString(call.Args[0])) {
				return "map iteration order", true
			}
		}
		return "", false
	}

	var fact taintFact
	measurePkg := mp != nil && pkgInList(pkg.PkgPath, TaintMeasurePackages)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if via, ok := rhsTaint(n.Rhs, n.Pos()); ok {
				taintLHS(n.Lhs, via)
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				if via, ok := rhsTaint(vs.Values, n.Pos()); ok {
					for _, name := range vs.Names {
						if obj := info.Defs[name]; obj != nil {
							vars[obj] = via
						}
					}
				}
			}
		case *ast.CallExpr:
			if mp == nil {
				return true
			}
			name, ok := CalleeName(info, n)
			if !ok {
				return true
			}
			surface, isSink := TaintSinks[name]
			if !isSink {
				return true
			}
			for _, arg := range n.Args {
				if via, tainted := exprTaint(arg); tainted {
					mp.Reportf(pkg, arg.Pos(),
						"nondeterministic value (from %s) flows into %s via %s: outputs must be pure functions of (corpus, seed, dim, bits)",
						via, surface, name)
					break
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				via, tainted := exprTaint(res)
				if !tainted {
					continue
				}
				if !fact.Tainted {
					fact = taintFact{Tainted: true, Via: via}
				}
				if measurePkg {
					mp.Reportf(pkg, n.Pos(),
						"measure value derived from %s: measures must be reproducible from (corpus, seed, dim, bits)",
						via)
				}
				break
			}
		}
		return true
	})
	return fact
}

// sourceCall reports whether the call is a direct nondeterminism source
// (global RNG draw, clock, or environment read) and names it.
func sourceCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	pkgPath, name, ok := pkgFunc(info, call)
	if !ok {
		return "", false
	}
	if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[name] {
		return pkgPath + "." + name, true
	}
	if envFuncs[[2]string{pkgPath, name}] {
		return pkgPath + "." + name, true
	}
	return "", false
}

// lhsObj resolves an assignment target (x, x.f, x[i], *x, ...) to its
// root variable object.
func lhsObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Defs[x]; obj != nil {
				return obj
			}
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pkgInList reports whether the import path falls under any entry of
// list (a trailing /... matches the subtree), mirroring
// IsDeterministicPkg for other package sets.
func pkgInList(path string, list []string) bool {
	for _, p := range list {
		if sub, ok := strings.CutSuffix(p, "/..."); ok {
			if path == sub || strings.HasPrefix(path, sub+"/") {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}
