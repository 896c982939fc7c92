package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EventOrder guards the event bus's delivery contract: publish is
// synchronous and subscriber callbacks run in subscription order, so
// publishing while holding a mutex invites lock-order deadlocks
// (subscribers are arbitrary code), and publishing from inside another
// subscriber callback interleaves event streams re-entrantly, breaking
// the deterministic publication order the byte-identical logs rely on.
// A callback also only borrows its event, so keeping it is flagged too.
var EventOrder = &Analyzer{
	Name: "eventorder",
	Doc: `eventorder flags event-bus Publish calls made while holding a mutex
or from inside a subscriber callback, and subscriber callbacks that
keep their event past the call.

Bus delivery is synchronous: Publish runs every subscriber before it
returns. Under a held mutex that hands arbitrary subscriber code the
lock (deadlock and lock-order hazard); inside another subscriber it
nests one event's delivery inside another's, so observers see the
streams interleaved re-entrantly instead of in publication order.
Publish after the critical section, or trampoline through the engine.

A subscriber borrows its event for the call only: a pointer kind such
as *evm.ActuationEvent points at a buffer the publisher rewrites for
the next event. A function literal passed to Subscribe must not append
its event argument (or a pointer, interface or wrapper taken from it by
type assertion, field or alias) to a slice, send it on a channel, or
assign it to anything declared outside the literal. Copy what you keep:
the struct behind the pointer, or its fields.

Deliberate exceptions carry //evm:allow-eventorder <reason>.`,
	Run: runEventOrder,
}

// busReceiver reports whether call is a method call on the event bus
// (a named type "Bus" or "*Bus"; the suffix match also covers fixture
// and future per-subsystem buses like "CampusBus").
func busReceiver(p *Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	name := recvTypeName(p.TypesInfo, call)
	return name == "Bus" || strings.HasSuffix(name, "Bus")
}

// isPublish matches Bus.Publish and the unexported Bus.publish.
func isPublish(p *Pass, call *ast.CallExpr) bool {
	return busReceiver(p, call, "Publish") || busReceiver(p, call, "publish")
}

// isMutexOp matches sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock calls
// (including through embedding) and returns the method name.
func isMutexOp(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", false
	}
	selection, ok := p.TypesInfo.Selections[sel]
	if !ok {
		return "", false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	return sel.Sel.Name, true
}

func runEventOrder(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if body := funcBody(n); body != nil {
				checkPublishUnderLock(p, body)
			}
			if call, ok := n.(*ast.CallExpr); ok {
				checkSubscriberPublish(p, call)
				checkSubscriberKeeps(p, call)
			}
			return true
		})
	}
	return nil
}

// checkPublishUnderLock walks one function body in source order,
// tracking how many mutexes are held; a Publish at depth > 0 is
// flagged. defer'd Unlocks do not release (the lock is held for the
// rest of the function). Nested function literals are separate
// functions with their own (empty) lock state.
func checkPublishUnderLock(p *Pass, body *ast.BlockStmt) {
	depth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held; skip so the Unlock
			// inside is not counted as a release here.
			return false
		case *ast.CallExpr:
			if op, ok := isMutexOp(p, s); ok {
				switch op {
				case "Lock", "RLock":
					depth++
				case "Unlock", "RUnlock":
					if depth > 0 {
						depth--
					}
				}
				return true
			}
			if depth > 0 && isPublish(p, s) {
				p.Reportf(s.Pos(), "event-bus publish while holding a mutex: delivery is synchronous and runs arbitrary subscriber code under the lock (deadlock/ordering hazard); publish after the critical section")
			}
		}
		return true
	})
}

// checkSubscriberPublish flags Publish calls inside a function literal
// passed to Bus.Subscribe.
func checkSubscriberPublish(p *Pass, call *ast.CallExpr) {
	if !busReceiver(p, call, "Subscribe") {
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if ok && isPublish(p, inner) {
				p.Reportf(inner.Pos(), "event-bus publish from inside a subscriber callback: delivery would nest re-entrantly and interleave event streams out of publication order; record and publish after delivery, or schedule via the engine")
			}
			return true
		})
	}
}

// checkSubscriberKeeps flags a function literal passed to Bus.Subscribe
// that keeps its event argument past the call. The check follows the
// argument through local aliases, type assertions, type-switch bindings,
// field reads and composite literals, as long as the value can still
// point into the event (a pointer, interface, or a struct, array, slice
// or map holding one); a dereference into a plain struct is a copy.
// It sees only the literal's own statements: a callback that hands the
// event to a function or to a closure run later is not followed.
func checkSubscriberKeeps(p *Pass, call *ast.CallExpr) {
	if !busReceiver(p, call, "Subscribe") {
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok || len(lit.Type.Params.List) == 0 {
			continue
		}
		k := &keepCheck{p: p, lit: lit, borrowed: make(map[types.Object]bool)}
		for _, name := range lit.Type.Params.List[0].Names {
			if obj := p.TypesInfo.Defs[name]; obj != nil && mayBorrow(obj.Type()) {
				k.borrowed[obj] = true
			}
		}
		if len(k.borrowed) > 0 {
			ast.Inspect(lit.Body, k.visit)
		}
	}
}

// keepCheck tracks, within one subscriber literal, the local variables
// that may point into the borrowed event.
type keepCheck struct {
	p        *Pass
	lit      *ast.FuncLit
	borrowed map[types.Object]bool
}

const keepMessage = "event-bus subscriber keeps its borrowed event past the callback: the publisher may rewrite it for the next event; copy the struct or the fields you need"

func (k *keepCheck) visit(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				k.assign(s.Lhs[i], s.Rhs[i])
			}
		} else if len(s.Rhs) == 1 {
			k.assign(s.Lhs[0], s.Rhs[0]) // v, ok := x.(T) and the like
		}
	case *ast.ValueSpec:
		for i, v := range s.Values {
			if i < len(s.Names) && k.carries(v) {
				k.borrowed[k.p.TypesInfo.Defs[s.Names[i]]] = true
			}
		}
	case *ast.TypeSwitchStmt:
		if a, ok := s.Assign.(*ast.AssignStmt); ok && k.carries(a.Rhs[0]) {
			for _, clause := range s.Body.List {
				if obj := k.p.TypesInfo.Implicits[clause]; obj != nil && mayBorrow(obj.Type()) {
					k.borrowed[obj] = true
				}
			}
		}
	case *ast.SendStmt:
		if k.carries(s.Value) {
			k.p.Reportf(s.Value.Pos(), keepMessage)
		}
	case *ast.CallExpr:
		if id, ok := s.Fun.(*ast.Ident); ok {
			if _, builtin := k.p.TypesInfo.Uses[id].(*types.Builtin); builtin && id.Name == "append" {
				for _, a := range s.Args[1:] {
					if k.carries(a) {
						k.p.Reportf(a.Pos(), keepMessage)
					}
				}
			}
		}
	}
	return true
}

// assign handles lhs = rhs: a value that carries the event marks a
// variable declared inside the literal as borrowed, and is reported
// when it lands in anything declared outside.
func (k *keepCheck) assign(lhs, rhs ast.Expr) {
	if !k.carries(rhs) {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := k.p.TypesInfo.Defs[root]
	if obj == nil {
		obj = k.p.TypesInfo.Uses[root]
	}
	if obj == nil {
		return // the blank identifier
	}
	if obj.Pos() >= k.lit.Pos() && obj.Pos() < k.lit.End() {
		k.borrowed[obj] = true
		return
	}
	k.p.Reportf(rhs.Pos(), keepMessage)
}

// carries reports whether e may point into the borrowed event.
func (k *keepCheck) carries(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		return k.borrowed[k.p.TypesInfo.Uses[x]]
	case *ast.TypeAssertExpr:
		if x.Type == nil { // the x.(type) of a type switch
			return k.carries(x.X)
		}
		return mayBorrow(k.p.TypeOf(x.Type)) && k.carries(x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && k.carries(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if k.carries(elt) {
				return true
			}
		}
		return false
	}
	op := operand(e)
	return op != nil && mayBorrow(k.p.TypeOf(e)) && k.carries(op)
}

// operand returns the expression e reads through: x for x.f, x[i],
// x[i:j] and *x; nil for anything else.
func operand(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.X
	case *ast.IndexExpr:
		return x.X
	case *ast.SliceExpr:
		return x.X
	case *ast.StarExpr:
		return x.X
	}
	return nil
}

// rootIdent returns the variable an assignment target writes through:
// x for x, x.f, x[i], *x and their combinations.
func rootIdent(e ast.Expr) *ast.Ident {
	for e != nil {
		e = ast.Unparen(e)
		if id, ok := e.(*ast.Ident); ok {
			return id
		}
		e = operand(e)
	}
	return nil
}

// mayBorrow reports whether a value of type t can point into memory
// it does not own: a pointer or interface, or a composite holding one.
func mayBorrow(t types.Type) bool { return borrows(t, make(map[types.Type]bool)) }

func borrows(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if borrows(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return borrows(u.Elem(), seen)
	case *types.Slice:
		return borrows(u.Elem(), seen)
	case *types.Map:
		return borrows(u.Key(), seen) || borrows(u.Elem(), seen)
	}
	return false
}
