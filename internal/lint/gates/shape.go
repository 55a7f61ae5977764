package gates

// Code-shape assertions: declarative per-function claims about the machine
// code the compiler emitted, checked against the -S listing (asm.go) and
// the check_bce diagnostic stream. Where the escape/bounds gates forbid
// *diagnostics*, shape rules certify *instructions*: a kernel that the
// manifest says is an unrolled, call-free, check-free multiply-add block
// must actually compile to one, or the gate trips. This is what keeps the
// generic rank-vector primitives and the dense update's passes honest
// across toolchain upgrades — if a future prove pass stops eliminating the
// checks or an inliner change inserts a call, the regression is a named
// finding, not a silent slowdown.

import (
	"fmt"
	"strings"
)

// Unchecked disables one bound of a ShapeRule.
const Unchecked = -1

// ShapeRule asserts the compiled shape of one function. Max* fields bound
// a count from above (Unchecked skips the assertion); MinFPMul bounds the
// floating-point multiply count from below (0 skips it).
type ShapeRule struct {
	// Func is the qualified short name, e.g. "kernels.addScaled32".
	Func string
	// Note explains what shape is being certified and why.
	Note string
	// MaxCalls bounds real CALLs anywhere in the function (panic blocks and
	// the morestack prologue excluded).
	MaxCalls int
	// MaxLoopCalls bounds real CALLs inside loop bodies only.
	MaxLoopCalls int
	// MaxBounds bounds check_bce diagnostics attributed to the function,
	// counting suppressed (//gate:allow bounds) ones too: an entry-block
	// re-slice check is tolerable, a per-element one is not, and the total
	// is what distinguishes them.
	MaxBounds int
	// MinFPMul requires at least this many FP multiply / fused multiply-add
	// instructions — the unroll-width witness for a blocked kernel.
	MinFPMul int
	// MaxLoopFrameLoads bounds in-loop loads from named stack-frame slots
	// (re-loaded slice headers or spilled bases that should stay hoisted).
	MaxLoopFrameLoads int
}

// Shape violation kinds.
const (
	ShapeMissing    = "missing"    // no compiled function matched Rule.Func
	ShapeCalls      = "calls"      // MaxCalls exceeded
	ShapeLoopCalls  = "loop-calls" // MaxLoopCalls exceeded
	ShapeBounds     = "bounds"     // MaxBounds exceeded
	ShapeFPMul      = "fpmul"      // MinFPMul not reached
	ShapeFrameLoads = "frameloads" // MaxLoopFrameLoads exceeded
)

// ShapeViolation is one failed shape assertion.
type ShapeViolation struct {
	Rule ShapeRule
	// Kind is one of the Shape* constants.
	Kind string
	// Got and Want are the observed and asserted counts (Want is the bound
	// that was violated; 0/0 for ShapeMissing).
	Got, Want int
	// Pos is "file:line" of the function declaration when known.
	Pos string
	// Detail names offenders (call targets, frame slots) for diagnosis.
	Detail string
}

func (v ShapeViolation) String() string {
	pos := v.Pos
	if pos == "" {
		pos = v.Rule.Func
	}
	var msg string
	switch v.Kind {
	case ShapeMissing:
		msg = fmt.Sprintf("function %s has a shape rule but was not found in the compiled output", v.Rule.Func)
	case ShapeCalls:
		msg = fmt.Sprintf("%s: %d CALL(s) in steady state, shape rule allows %d", v.Rule.Func, v.Got, v.Want)
	case ShapeLoopCalls:
		msg = fmt.Sprintf("%s: %d CALL(s) inside loop bodies, shape rule allows %d", v.Rule.Func, v.Got, v.Want)
	case ShapeBounds:
		msg = fmt.Sprintf("%s: %d bounds-check(s), shape rule allows %d", v.Rule.Func, v.Got, v.Want)
	case ShapeFPMul:
		msg = fmt.Sprintf("%s: %d FP multiply/FMA instruction(s), shape rule requires >= %d (unroll width lost)", v.Rule.Func, v.Got, v.Want)
	case ShapeFrameLoads:
		msg = fmt.Sprintf("%s: %d in-loop load(s) of named frame slots, shape rule allows %d (bases not hoisted)", v.Rule.Func, v.Got, v.Want)
	default:
		msg = fmt.Sprintf("%s: shape violation %s (got %d, want %d)", v.Rule.Func, v.Kind, v.Got, v.Want)
	}
	if v.Detail != "" {
		msg += " [" + v.Detail + "]"
	}
	return fmt.Sprintf("%s: [shape] %s", pos, msg)
}

// checkShapes evaluates every manifest shape rule against the parsed
// assembly and the raw diagnostic stream. A //gate:allow directive naming
// the shape kind explicitly, placed on or directly above the function
// declaration, suppresses all shape violations for that function (the
// blanket reason-only form does not cover shape: waiving a machine-code
// certification must be deliberate).
func checkShapes(m *Manifest, funcs map[string]*AsmFunc, diags []Diag, idx *index) []ShapeViolation {
	boundsByFunc := make(map[string]int)
	for _, d := range diags {
		if d.Kind != KindBounds {
			continue
		}
		if fn := idx.enclosingFunc(d); fn != "" {
			boundsByFunc[fn]++
		}
	}

	var out []ShapeViolation
	for _, rule := range m.Shapes {
		file, line, declared := idx.funcDecl(rule.Func)
		pos := ""
		if declared {
			pos = fmt.Sprintf("%s:%d", file, line)
		}
		if declared && idx.allowShape(file, line) {
			continue
		}
		f, ok := funcs[rule.Func]
		if !ok {
			out = append(out, ShapeViolation{Rule: rule, Kind: ShapeMissing, Pos: pos})
			continue
		}
		var calls, loopCalls, fpmul, frameLoads int
		var callTargets, slotNames []string
		for _, in := range f.Insns {
			switch {
			case isRealCall(in):
				calls++
				callTargets = appendCapped(callTargets, callTarget(in))
				if f.inLoop(in.Off) {
					loopCalls++
				}
			case isFPMul(in.Op):
				fpmul++
			case isNamedFrameLoad(in) && f.inLoop(in.Off):
				frameLoads++
				slotNames = appendCapped(slotNames, firstArg(in))
			}
		}
		add := func(kind string, got, want int, detail []string) {
			out = append(out, ShapeViolation{
				Rule: rule, Kind: kind, Got: got, Want: want, Pos: pos,
				Detail: strings.Join(detail, ", "),
			})
		}
		if rule.MaxCalls != Unchecked && calls > rule.MaxCalls {
			add(ShapeCalls, calls, rule.MaxCalls, callTargets)
		}
		if rule.MaxLoopCalls != Unchecked && loopCalls > rule.MaxLoopCalls {
			add(ShapeLoopCalls, loopCalls, rule.MaxLoopCalls, callTargets)
		}
		if rule.MaxBounds != Unchecked && boundsByFunc[rule.Func] > rule.MaxBounds {
			add(ShapeBounds, boundsByFunc[rule.Func], rule.MaxBounds, nil)
		}
		if rule.MinFPMul > 0 && fpmul < rule.MinFPMul {
			add(ShapeFPMul, fpmul, rule.MinFPMul, nil)
		}
		if rule.MaxLoopFrameLoads != Unchecked && frameLoads > rule.MaxLoopFrameLoads {
			add(ShapeFrameLoads, frameLoads, rule.MaxLoopFrameLoads, slotNames)
		}
	}
	return out
}

// appendCapped collects up to four distinct detail strings.
func appendCapped(list []string, s string) []string {
	if s == "" || len(list) >= 4 {
		return list
	}
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}

// callTarget extracts the callee symbol from a CALL's operands.
func callTarget(in Insn) string {
	arg := strings.TrimSpace(in.Args)
	if i := strings.LastIndex(arg, ","); i >= 0 {
		arg = strings.TrimSpace(arg[i+1:])
	}
	return strings.TrimSuffix(arg, "(SB)")
}

// firstArg returns a MOV's source operand.
func firstArg(in Insn) string {
	src, _, ok := strings.Cut(in.Args, ",")
	if !ok {
		return strings.TrimSpace(in.Args)
	}
	return strings.TrimSpace(src)
}

// funcDecl locates the declaration of a qualified function name in the
// parsed source index.
func (idx *index) funcDecl(name string) (file string, line int, ok bool) {
	for f, spans := range idx.funcs {
		for _, fs := range spans {
			if fs.name == name {
				return f, fs.from, true
			}
		}
	}
	return "", 0, false
}

// allowShape reports whether a //gate:allow directive explicitly naming
// the shape kind covers the function declared at (file, line), marking it
// used.
func (idx *index) allowShape(file string, line int) bool {
	hit := false
	for _, ga := range idx.allows[file][line] {
		if ga.kinds != nil && ga.kinds[KindShape] {
			ga.used = true
			hit = true
		}
	}
	return hit
}
