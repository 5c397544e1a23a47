package formula

import "strings"

// Formula is an arbitrary boolean formula over primitive literals:
// f ::= π | true | false | ¬f | f ∧ f' | f ∨ f'. Backward transfer functions
// produce Formula values; the meta-analysis converts them to DNF with ToDNF.
type Formula struct {
	kind kind
	lit  Lit
	subs []Formula
}

type kind uint8

const (
	kTrue kind = iota
	kFalse
	kLit
	kNot
	kAnd
	kOr
)

// True and False are the boolean constants.
func True() Formula  { return Formula{kind: kTrue} }
func False() Formula { return Formula{kind: kFalse} }

// L lifts a primitive to a positive literal formula.
func L(p Prim) Formula { return Formula{kind: kLit, lit: Lit{P: p}} }

// NegL lifts a primitive to a negated literal formula.
func NegL(p Prim) Formula { return Formula{kind: kLit, lit: Lit{P: p, Neg: true}} }

// FromLit lifts a literal to a formula.
func FromLit(l Lit) Formula { return Formula{kind: kLit, lit: l} }

// IsLit reports whether f is syntactically the literal l: the shape a
// weakest precondition takes for a primitive its atom does not touch.
func (f Formula) IsLit(l Lit) bool { return f.kind == kLit && f.lit == l }

// FromDNF converts a DNF back to a Formula.
func FromDNF(d DNF) Formula {
	disjuncts := make([]Formula, 0, len(d))
	for _, c := range d {
		lits := make([]Formula, 0, c.Size())
		for _, l := range c.Lits() {
			lits = append(lits, FromLit(l))
		}
		disjuncts = append(disjuncts, And(lits...))
	}
	return Or(disjuncts...)
}

// Not negates a formula.
func Not(f Formula) Formula {
	switch f.kind {
	case kTrue:
		return False()
	case kFalse:
		return True()
	case kNot:
		return f.subs[0]
	case kLit:
		return FromLit(f.lit.Negate())
	}
	return Formula{kind: kNot, subs: []Formula{f}}
}

// And conjoins formulas, folding constants.
func And(fs ...Formula) Formula {
	var subs []Formula
	for _, f := range fs {
		switch f.kind {
		case kTrue:
			continue
		case kFalse:
			return False()
		case kAnd:
			subs = append(subs, f.subs...)
		default:
			subs = append(subs, f)
		}
	}
	switch len(subs) {
	case 0:
		return True()
	case 1:
		return subs[0]
	}
	return Formula{kind: kAnd, subs: subs}
}

// Or disjoins formulas, folding constants.
func Or(fs ...Formula) Formula {
	var subs []Formula
	for _, f := range fs {
		switch f.kind {
		case kFalse:
			continue
		case kTrue:
			return True()
		case kOr:
			subs = append(subs, f.subs...)
		default:
			subs = append(subs, f)
		}
	}
	switch len(subs) {
	case 0:
		return False()
	case 1:
		return subs[0]
	}
	return Formula{kind: kOr, subs: subs}
}

// Implies builds f → g as ¬f ∨ g.
func Implies(f, g Formula) Formula { return Or(Not(f), g) }

func (f Formula) String() string {
	switch f.kind {
	case kTrue:
		return "true"
	case kFalse:
		return "false"
	case kLit:
		return f.lit.String()
	case kNot:
		return "¬(" + f.subs[0].String() + ")"
	case kAnd:
		return joinSubs(f.subs, " ∧ ")
	case kOr:
		return joinSubs(f.subs, " ∨ ")
	}
	return "?"
}

func joinSubs(subs []Formula, sep string) string {
	parts := make([]string, len(subs))
	for i, s := range subs {
		if s.kind == kAnd || s.kind == kOr {
			parts[i] = "(" + s.String() + ")"
		} else {
			parts[i] = s.String()
		}
	}
	return strings.Join(parts, sep)
}

// Eval evaluates the formula under a literal valuation; it treats negation
// classically (eval is consulted only on the literal's positive form via the
// valuation itself, which must handle Neg).
func (f Formula) Eval(eval func(Lit) bool) bool {
	switch f.kind {
	case kTrue:
		return true
	case kFalse:
		return false
	case kLit:
		return eval(f.lit)
	case kNot:
		return !f.subs[0].Eval(eval)
	case kAnd:
		for _, s := range f.subs {
			if !s.Eval(eval) {
				return false
			}
		}
		return true
	case kOr:
		for _, s := range f.subs {
			if s.Eval(eval) {
				return true
			}
		}
		return false
	}
	panic("formula: bad kind")
}

// ToDNF converts a formula to disjunctive normal form, sorted by disjunct
// size as Fig 8's toDNF requires. Negations of literals are resolved through
// the universe's theory (¬v.L becomes v.E ∨ v.N in the thread-escape theory,
// while the type-state theory keeps signed literals). u must be non-nil.
func ToDNF(f Formula, u *Universe) DNF {
	return toDNF(f, false, u).SortBySize()
}

func toDNF(f Formula, neg bool, u *Universe) DNF {
	switch f.kind {
	case kTrue:
		if neg {
			return DFalse()
		}
		return DTrue()
	case kFalse:
		if neg {
			return DTrue()
		}
		return DFalse()
	case kNot:
		return toDNF(f.subs[0], !neg, u)
	case kLit:
		l := f.lit
		if neg {
			l = l.Negate()
		}
		if l.Neg {
			if alts, ok := u.th.NegLit(l.Negate()); ok {
				out := make(DNF, 0, len(alts))
				for _, a := range alts {
					out = append(out, NewConj(u, a))
				}
				return out
			}
		}
		return DNF{NewConj(u, l)}
	case kAnd, kOr:
		isAnd := f.kind == kAnd
		if neg {
			isAnd = !isAnd
		}
		if isAnd {
			out := DTrue()
			for _, s := range f.subs {
				out = out.And(toDNF(s, neg, u))
				if out.IsFalse() {
					return out
				}
			}
			return out
		}
		out := DFalse()
		for _, s := range f.subs {
			out = out.Or(toDNF(s, neg, u))
		}
		return out
	}
	panic("formula: bad kind")
}
