package dsl

import "fmt"

// Dim is a dimension vector over (bytes, seconds) with integer exponents —
// the quantifier-free finite-domain encoding the paper chose for its unit
// constraints (§4.1): ack-rate is bytes^1 * sec^-1, RTT is sec^1, and a
// handler's output must be bytes^1.
type Dim struct {
	Bytes int
	Secs  int
}

// Dimensionless is the zero dimension.
var Dimensionless = Dim{}

// DimBytes is the dimension of window sizes.
var DimBytes = Dim{Bytes: 1}

// String renders e.g. "bytes^1*sec^-1".
func (d Dim) String() string {
	switch {
	case d == Dimensionless:
		return "1"
	case d.Secs == 0:
		return fmt.Sprintf("bytes^%d", d.Bytes)
	case d.Bytes == 0:
		return fmt.Sprintf("sec^%d", d.Secs)
	default:
		return fmt.Sprintf("bytes^%d*sec^%d", d.Bytes, d.Secs)
	}
}

// Unit is the result of dimensional analysis: either a concrete dimension
// or polymorphic ("Poly"). Constants are unit-polymorphic — in the paper's
// SMT encoding every constant carries a free unit variable, which is what
// lets Cubic's C absorb packets/sec^3 and lets a conditional arm hold a
// bare 0. Any expression containing a free constant factor is polymorphic.
type Unit struct {
	D    Dim
	Poly bool
}

// String implements fmt.Stringer.
func (u Unit) String() string {
	if u.Poly {
		return "poly"
	}
	return u.D.String()
}

// maxExponent bounds dimension exponents during checking; expressions that
// exceed it are rejected as physically meaningless.
const maxExponent = 3

// inRange reports whether the dimension's exponents are within bounds.
func (d Dim) inRange() bool {
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	return abs(d.Bytes) <= maxExponent && abs(d.Secs) <= maxExponent
}

// signalDims gives each signal its physical dimension.
var signalDims = map[Signal]Dim{
	SigMSS:           DimBytes,
	SigAcked:         DimBytes,
	SigTimeSinceLoss: {Secs: 1},
	SigRTT:           {Secs: 1},
	SigMinRTT:        {Secs: 1},
	SigMaxRTT:        {Secs: 1},
	SigAckRate:       {Bytes: 1, Secs: -1},
	SigRTTGradient:   Dimensionless,
	SigWMax:          DimBytes,
}

// macroDims gives each macro its physical dimension (derivable from its
// definition; pre-computed for clarity).
var macroDims = map[Macro]Dim{
	MacroRenoInc:       DimBytes,      // acked*mss/cwnd
	MacroVegasDiff:     Dimensionless, // sec * bytes/sec / bytes
	MacroHTCPDiff:      Dimensionless, // sec / sec
	MacroRTTsSinceLoss: Dimensionless, // sec / sec
}

// ErrUnits is returned when an expression fails dimensional analysis.
type ErrUnits struct {
	Node   *Node
	Reason string
}

// Error implements error.
func (e *ErrUnits) Error() string {
	return fmt.Sprintf("dsl: unit error at %q: %s", e.Node, e.Reason)
}

// unitFault names the rule one node breaks; the zero value means none.
// Faults are codes rather than errors so that the enumerator, which
// rejects most of its candidates, never formats a reason: ErrUnits is
// rendered from the fault only on the UnitOf/CheckHandlerUnits path.
type unitFault uint8

const (
	faultNone         unitFault = iota
	faultExponent               // product or quotient exponent out of range
	faultCubeExponent           // cube exponent out of range
	faultCbrt                   // cube root of a non-cubic dimension
	faultAdd                    // sum or difference of unequal dimensions
	faultBranches               // conditional branches of unequal dimensions
	faultCompare                // comparison of unequal dimensions
	faultBoolAsNum              // a predicate (or unknown operator) where a number is expected
	faultNumAsBool              // a number where a predicate is expected
)

// UnitAttr is the dimensional-analysis attribute of one subtree: the Unit
// of a numeric subtree, the mark of a well-dimensioned predicate, or the
// first fault found at or below its root. LeafUnits and OpUnits together
// are the per-node unit rule: UnitOf and CheckHandlerUnits fold it over a
// tree recursively, and the enumerator folds it in O(1) per candidate
// from the attributes its children already carry.
type UnitAttr struct {
	u     Unit
	pred  bool
	fault unitFault
}

// Unit returns the subtree's unit; ok is false when the subtree fails
// dimensional analysis or is a predicate.
func (a UnitAttr) Unit() (u Unit, ok bool) {
	return a.u, a.fault == faultNone && !a.pred
}

// HandlerOK reports whether the subtree passes CheckHandlerUnits.
func (a UnitAttr) HandlerOK() bool {
	u, ok := a.Unit()
	return ok && handlerUnit(u)
}

// handlerUnit is the whole-handler contract: a cwnd-on-ACK handler must
// produce bytes, or be polymorphic (a free constant can always be
// assigned bytes-valued units).
func handlerUnit(u Unit) bool { return u.Poly || u.D == DimBytes }

// LeafUnits is the unit rule at a leaf. Constants are polymorphic.
func LeafUnits(n *Node) UnitAttr {
	switch n.Op {
	case OpCwnd:
		return UnitAttr{u: Unit{D: DimBytes}}
	case OpSignal:
		return UnitAttr{u: Unit{D: signalDims[n.Sig]}}
	case OpMacro:
		return UnitAttr{u: Unit{D: macroDims[n.Mac]}}
	case OpConst:
		return UnitAttr{u: Unit{Poly: true}}
	}
	return UnitAttr{fault: faultBoolAsNum}
}

// OpUnits is the unit rule at an operator node: the attribute of op
// applied to operands with the attributes kids, in operand order. A fault
// in an operand propagates. Cube triples exponents; cube root requires all
// exponents divisible by 3 — with integer exponents, bytes^(1/3) is not
// representable, which is exactly the paper's stated limitation for Cubic
// (§5.5).
func OpUnits(op Op, kids ...UnitAttr) UnitAttr {
	for _, k := range kids {
		if k.fault != faultNone {
			return k
		}
	}
	// Operand kinds: a conditional's first operand is a predicate, every
	// other operand is a number.
	for i, k := range kids {
		if want := op == OpCond && i == 0; k.pred != want {
			if want {
				return UnitAttr{fault: faultNumAsBool}
			}
			return UnitAttr{fault: faultBoolAsNum}
		}
	}
	switch op {
	case OpAdd, OpSub:
		return joinEqual(kids[0].u, kids[1].u, faultAdd)
	case OpMul, OpDiv:
		a, b := kids[0].u, kids[1].u
		if a.Poly || b.Poly {
			// A free constant factor can shift the product to any
			// dimension.
			return UnitAttr{u: Unit{Poly: true}}
		}
		var d Dim
		if op == OpMul {
			d = Dim{Bytes: a.D.Bytes + b.D.Bytes, Secs: a.D.Secs + b.D.Secs}
		} else {
			d = Dim{Bytes: a.D.Bytes - b.D.Bytes, Secs: a.D.Secs - b.D.Secs}
		}
		if !d.inRange() {
			return UnitAttr{fault: faultExponent}
		}
		return UnitAttr{u: Unit{D: d}}
	case OpCond:
		return joinEqual(kids[1].u, kids[2].u, faultBranches)
	case OpCube:
		a := kids[0].u
		if a.Poly {
			return kids[0]
		}
		d := Dim{Bytes: 3 * a.D.Bytes, Secs: 3 * a.D.Secs}
		if !d.inRange() {
			return UnitAttr{fault: faultCubeExponent}
		}
		return UnitAttr{u: Unit{D: d}}
	case OpCbrt:
		a := kids[0].u
		if a.Poly {
			return kids[0]
		}
		if a.D.Bytes%3 != 0 || a.D.Secs%3 != 0 {
			return UnitAttr{fault: faultCbrt}
		}
		return UnitAttr{u: Unit{D: Dim{Bytes: a.D.Bytes / 3, Secs: a.D.Secs / 3}}}
	case OpLt, OpGt, OpModEq:
		// Both operands must share a dimension, with polymorphic sides
		// (calibration constants like "cwnd % 2.7") unifying freely.
		if j := joinEqual(kids[0].u, kids[1].u, faultCompare); j.fault != faultNone {
			return j
		}
		return UnitAttr{pred: true}
	}
	return UnitAttr{fault: faultBoolAsNum}
}

// joinEqual unifies two units that must agree (sum operands, conditional
// branches, comparison operands): a polymorphic side adopts the other
// side's dimension.
func joinEqual(a, b Unit, mismatch unitFault) UnitAttr {
	switch {
	case a.Poly:
		return UnitAttr{u: b}
	case b.Poly:
		return UnitAttr{u: a}
	case a.D != b.D:
		return UnitAttr{fault: mismatch}
	default:
		return UnitAttr{u: a}
	}
}

// unitsOf folds the unit rule over n's subtree, depth first in operand
// order, and renders the first fault as an *ErrUnits.
func unitsOf(n *Node) (UnitAttr, error) {
	if n.Op.IsLeaf() {
		a := LeafUnits(n)
		return a, a.err(n, nil)
	}
	kids := make([]UnitAttr, len(n.Kids))
	for i, k := range n.Kids {
		a, err := unitsOf(k)
		if err != nil {
			return a, err
		}
		kids[i] = a
	}
	a := OpUnits(n.Op, kids...)
	return a, a.err(n, kids)
}

// err renders the attribute's fault at node n, whose operands have the
// attributes kids; nil when there is none.
func (a UnitAttr) err(n *Node, kids []UnitAttr) error {
	var reason string
	at := n
	switch a.fault {
	case faultNone:
		return nil
	case faultExponent:
		reason = "exponent out of range"
	case faultCubeExponent:
		reason = "cube exponent out of range"
	case faultCbrt:
		reason = "cube root of non-cubic dimension"
	case faultAdd:
		reason = fmt.Sprintf("adding %s and %s", kids[0].u.D, kids[1].u.D)
	case faultBranches:
		reason = fmt.Sprintf("branches %s and %s", kids[1].u.D, kids[2].u.D)
	case faultCompare:
		reason = fmt.Sprintf("comparing %s and %s", kids[0].u.D, kids[1].u.D)
	case faultNumAsBool:
		at, reason = n.Kids[0], "number where boolean expected"
	case faultBoolAsNum:
		reason = "boolean where number expected"
		for i, k := range kids {
			if k.pred && (n.Op != OpCond || i > 0) {
				at = n.Kids[i]
				break
			}
		}
	}
	return &ErrUnits{Node: at, Reason: reason}
}

// UnitOf computes the expression's unit.
func UnitOf(n *Node) (Unit, error) {
	a, err := unitsOf(n)
	if err != nil {
		return Unit{}, err
	}
	if a.pred {
		return Unit{}, &ErrUnits{Node: n, Reason: "boolean where number expected"}
	}
	return a.u, nil
}

// CheckHandlerUnits verifies the whole-expression contract: a cwnd-on-ACK
// handler must produce bytes (or be polymorphic — a free constant can
// always be assigned bytes-valued units).
func CheckHandlerUnits(n *Node) error {
	u, err := UnitOf(n)
	if err != nil {
		return err
	}
	if !handlerUnit(u) {
		return &ErrUnits{Node: n, Reason: fmt.Sprintf("handler produces %s, want bytes", u.D)}
	}
	return nil
}
