package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolalloc guards the zero-allocation contract of the one-sided comm
// hot path (the upc-bench -check gates): in the fabric, sim and upc
// packages, record types managed by a sim.FreeList must be obtained
// from the pool, not heap-allocated fresh; standalone event allocations
// mark an operation that escaped the pooled-record design; and payload
// staging buffers have no place in a model that carries byte counts
// instead of bytes. Genuinely cold control paths (RPC setup, barrier
// generations, collectives) carry //upcvet:poolalloc with a reason.
var Poolalloc = &Analyzer{
	Name: "poolalloc",
	Doc: "flag heap allocation of pooled record types, standalone events and " +
		"byte staging buffers in the comm hot-path packages; the one-sided " +
		"path is allocation-free by contract",
	Run: runPoolalloc,
}

// poolallocPackages are the packages whose non-test code is held to the
// pooled-allocation rule — the layers the one-sided hot path crosses.
var poolallocPackages = []string{
	"repro/internal/sim",
	"repro/internal/fabric",
	"repro/internal/upc",
}

const simPkgPath = "repro/internal/sim"

func poolallocScope(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range poolallocPackages {
		if path == p {
			return true
		}
	}
	return false
}

func runPoolalloc(pass *Pass) error {
	if !poolallocScope(pass.Path) {
		return nil
	}
	pooled := pooledElemTypes(pass.Info)
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // tests allocate freely; the contract covers the runtime
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.UnaryExpr:
				if e.Op != token.AND {
					return true
				}
				cl, ok := ast.Unparen(e.X).(*ast.CompositeLit)
				if !ok {
					return true
				}
				checkPoolallocType(pass, pooled, e.Pos(), pass.Info.TypeOf(cl), "&%s{}")
			case *ast.CallExpr:
				id, ok := ast.Unparen(e.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				b, ok := pass.Info.Uses[id].(*types.Builtin)
				if !ok || len(e.Args) == 0 {
					return true
				}
				switch b.Name() {
				case "new":
					checkPoolallocType(pass, pooled, e.Pos(), pass.Info.TypeOf(e.Args[0]), "new(%s)")
				case "make":
					if t, ok := pass.Info.TypeOf(e.Args[0]).(*types.Slice); ok && isByte(t.Elem()) {
						pass.Reportf(e.Pos(),
							"make([]byte, ...) allocates a payload staging buffer on the comm path; the fabric model carries byte counts, not payloads")
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkPoolallocType reports a fresh heap allocation of type t when t is
// a pool-managed record of this package or a standalone sim.Event
// outside sim itself. form is "&%s{}" or "new(%s)".
func checkPoolallocType(pass *Pass, pooled map[*types.TypeName]bool, pos token.Pos, t types.Type, form string) {
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Origin().Obj()
	if pooled[obj] {
		pass.Reportf(pos,
			form+" bypasses the free list that manages this type; take records from the pool (Get/Put) so the hot path stays allocation-free", obj.Name())
		return
	}
	if obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath &&
		strings.TrimSuffix(pass.Path, "_test") != simPkgPath {
		pass.Reportf(pos,
			"standalone event allocation on the comm path; hot-path events live inside pooled records (Reset re-arms them for reuse)")
	}
}

// pooledElemTypes collects the element types this package manages in
// sim.FreeList pools — every T of a FreeList[T] type expression
// anywhere in the package (fields, variables, slices of pools).
func pooledElemTypes(info *types.Info) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, tv := range info.Types {
		if !tv.IsType() {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Origin().Obj()
		if obj.Name() != "FreeList" || obj.Pkg() == nil || obj.Pkg().Path() != simPkgPath {
			continue
		}
		args := named.TypeArgs()
		if args == nil || args.Len() != 1 {
			continue
		}
		if elem, ok := args.At(0).(*types.Named); ok {
			out[elem.Origin().Obj()] = true
		}
	}
	return out
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
