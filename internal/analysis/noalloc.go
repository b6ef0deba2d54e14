package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc statically checks functions annotated //rubic:noalloc for
// allocation sites. The transaction fast paths and the latency histogram's
// record path promise zero steady-state heap allocations; today that
// promise is enforced by testing.AllocsPerRun gates, which only sample the
// shapes the benchmarks happen to drive. This analyzer is the static
// complement: every construct in an annotated body that the compiler
// lowers to a heap allocation (or can, when the value escapes) is reported:
//
//   - make (maps, slices, channels) and new;
//   - map and slice composite literals, and &T{...} (escaping composite);
//   - func literals that capture enclosing variables (closure object);
//   - append (may grow the backing array — pooled-buffer appends carry a
//     justified //lint:ignore);
//   - map writes (bucket growth);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - boxing a non-constant, non-pointer value into an interface argument
//     or result.
//
// Known false negatives: allocations inside callees (annotate the callee),
// escape-analysis promotions of plain local variables, and allocations behind
// interface method calls. The only budgeted allocation under the annotated
// transaction paths is stm.newBox: the box of a value too wide for a Var's
// own words, one per written location of such a type.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "reports allocation sites (make/new, escaping composites, capturing " +
		"closures, append growth, map writes, string building, interface " +
		"boxing) in functions annotated //rubic:noalloc",
	Run: runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	for _, fd := range funcsWithDirective(pass.Pkg, directiveNoAlloc) {
		checkNoAllocBody(pass, fd)
	}
}

func checkNoAllocBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	results := fd.Type.Results
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			pass.checkNoAllocCall(n)
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates")
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates")
			default:
				if len(stack) > 0 {
					if un, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && un.Op == token.AND {
						pass.Reportf(n.Pos(), "&composite literal escapes to the heap")
					}
				}
			}
		case *ast.FuncLit:
			if capturesOuter(info, n) {
				pass.Reportf(n.Pos(), "func literal captures enclosing variables: closure allocates")
			}
			return false // a closure body is its own allocation context
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if tv, ok := info.Types[ix.X]; ok && tv.Type != nil {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							pass.Reportf(ix.Pos(), "map write may allocate (bucket growth)")
						}
					}
				}
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "string concatenation allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n.X) && !isConstExpr(info, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates")
			}
		case *ast.ReturnStmt:
			if results == nil {
				return true
			}
			flat := flattenResultTypes(info, results)
			for i, res := range n.Results {
				if i < len(flat) && boxesIntoInterface(info, res, flat[i]) {
					pass.Reportf(res.Pos(), "boxing %s into interface result may allocate", info.Types[res].Type.String())
				}
			}
		}
		return true
	})
}

// checkNoAllocCall flags allocating builtins, conversions and interface-
// boxing arguments.
func (pass *Pass) checkNoAllocCall(call *ast.CallExpr) {
	info := pass.Pkg.Info
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates")
			case "new":
				pass.Reportf(call.Pos(), "new allocates")
			case "append":
				pass.Reportf(call.Pos(), "append may grow (allocate) the backing array")
			}
			return
		}
	}
	// String <-> byte/rune slice conversions copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.Types[call.Args[0]].Type
		if from != nil && isStringByteConversion(to, from) && !isConstExpr(info, call.Args[0]) {
			pass.Reportf(call.Pos(), "%s(%s) conversion copies (allocates)", to.String(), from.String())
		}
		return
	}
	// Interface boxing of call arguments.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		case sig.Variadic():
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		}
		if boxesIntoInterface(info, arg, pt) {
			pass.Reportf(arg.Pos(), "boxing %s into interface argument may allocate", info.Types[arg].Type.String())
		}
	}
}

// callSignature resolves the signature of a (non-builtin, non-conversion)
// call, nil when unresolvable.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// boxesIntoInterface reports whether passing arg to a slot of type param
// materializes an interface from a non-pointer, non-constant concrete
// value — the conversion that allocates. Pointer-shaped values (pointers,
// channels, maps, funcs, unsafe pointers) fit in the interface word;
// constants get static boxes.
func boxesIntoInterface(info *types.Info, arg ast.Expr, param types.Type) bool {
	if param == nil {
		return false
	}
	if _, isIface := param.Underlying().(*types.Interface); !isIface {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil || tv.Value != nil { // constants: static box
		return false
	}
	at := tv.Type
	if _, isIface := at.Underlying().(*types.Interface); isIface {
		return false // already boxed
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Tuple:
		return false
	}
	return true
}

// flattenResultTypes returns the declared result types in order.
func flattenResultTypes(info *types.Info, results *ast.FieldList) []types.Type {
	var out []types.Type
	for _, f := range results.List {
		t := info.Types[f.Type].Type
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, t)
		}
	}
	return out
}

// capturesOuter reports whether the func literal references variables
// declared outside it (excluding package-level objects, which need no
// capture).
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || isPkgLevel(v) {
			return true
		}
		if declaredOutside(v, lit) {
			captures = true
		}
		return true
	})
	return captures
}

// isStringExpr reports whether e has (underlying) string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether e is a compile-time constant.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// isStringByteConversion reports whether (to, from) is a string<->[]byte or
// string<->[]rune pair.
func isStringByteConversion(to, from types.Type) bool {
	str := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	byteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (str(to) && byteish(from)) || (byteish(to) && str(from))
}
