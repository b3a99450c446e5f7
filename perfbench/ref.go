package main

import (
	"fmt"
	"sort"
	"strings"

	"stopss/internal/message"
)

// The reference matcher is the benchmark's own model of semantic
// matching, written without any of the program's matching, semantic or
// ontology code. It evaluates every subscription, one by one, over the
// closure of a publication under the synonyms, is-a ancestors and
// mapping rules that the benchmark itself generated, so a fault in the
// program's indexes, plan cache, expansion cache or knowledge re-index
// shows as a difference between the two.

// rval is a reference value: a string or a number.
type rval struct {
	num bool
	n   float64
	s   string
}

func rstr(s string) rval  { return rval{s: s} }
func rnum(n float64) rval { return rval{num: true, n: n} }
func (v rval) key() string {
	if v.num {
		return fmt.Sprintf("#%g", v.n)
	}
	return "$" + v.s
}
func (v rval) String() string {
	if v.num {
		return fmt.Sprintf("%g", v.n)
	}
	return v.s
}

// rpair is one (attribute, value) pair of a publication.
type rpair struct {
	attr string
	val  rval
}

// rpred is one predicate of a conjunctive subscription.
type rpred struct {
	attr string
	op   string // = != < <= > >=
	val  rval
}

// rsub is a conjunctive subscription.
type rsub []rpred

// rrule is a mapping rule: when the closure holds a value for src, it
// gains (dst, derive(first value of src)). A pair map (match set) fires
// when src holds the match value and adds the fixed pairs in out.
type rrule struct {
	src    string
	derive func(rval) (rval, bool)
	dst    string
	match  *rval
	out    []rpair
}

// refKB is the reference knowledge: attribute synonyms (alias → root),
// direct is-a parents of concept terms, and mapping rules.
type refKB struct {
	syn     map[string]string
	parents map[string][]string
	rules   []rrule
}

func newRefKB() *refKB {
	return &refKB{syn: map[string]string{}, parents: map[string][]string{}}
}

func (kb *refKB) clone() *refKB {
	c := newRefKB()
	for k, v := range kb.syn {
		c.syn[k] = v
	}
	for k, v := range kb.parents {
		c.parents[k] = append([]string(nil), v...)
	}
	c.rules = append(c.rules, kb.rules...)
	return c
}

// addSynonyms makes every alias a synonym of root.
func (kb *refKB) addSynonyms(root string, aliases ...string) {
	for _, a := range aliases {
		kb.syn[a] = root
	}
}

// addIsA records child is-a parent.
func (kb *refKB) addIsA(child, parent string) {
	kb.parents[child] = append(kb.parents[child], parent)
}

func (kb *refKB) canon(attr string) string {
	if r, ok := kb.syn[attr]; ok {
		return r
	}
	return attr
}

// ancestors returns every transitive is-a ancestor of term.
func (kb *refKB) ancestors(term string) []string {
	var out []string
	seen := map[string]bool{term: true}
	stack := []string{term}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range kb.parents[t] {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
				stack = append(stack, p)
			}
		}
	}
	return out
}

// closure is a publication closed under the knowledge base: attribute →
// values in insertion order.
type closure struct {
	vals map[string][]rval
	keys map[string]bool
}

func (c *closure) add(attr string, v rval) bool {
	k := attr + "\x1f" + v.key()
	if c.keys[k] {
		return false
	}
	c.keys[k] = true
	c.vals[attr] = append(c.vals[attr], v)
	return true
}

// close computes the closure of a publication: synonyms rewrite each
// attribute to its root, then ancestors of attributes and of string
// values, and mapping rules, are applied until nothing changes.
func (kb *refKB) close(ev []rpair) *closure {
	c := &closure{vals: map[string][]rval{}, keys: map[string]bool{}}
	for _, p := range ev {
		c.add(kb.canon(p.attr), p.val)
	}
	for changed := true; changed; {
		changed = false
		for attr, vs := range c.vals {
			for _, v := range vs {
				for _, a := range kb.ancestors(attr) {
					changed = c.add(a, v) || changed
				}
				if !v.num {
					for _, a := range kb.ancestors(v.s) {
						changed = c.add(attr, rstr(a)) || changed
					}
				}
			}
		}
		for _, r := range kb.rules {
			vs := c.vals[r.src]
			if len(vs) == 0 {
				continue
			}
			if r.match != nil {
				for _, v := range vs {
					if v.key() == r.match.key() {
						for _, p := range r.out {
							changed = c.add(p.attr, p.val) || changed
						}
						break
					}
				}
				continue
			}
			if d, ok := r.derive(vs[0]); ok {
				changed = c.add(r.dst, d) || changed
			}
		}
	}
	return c
}

// syntactic is the publication as published, with no knowledge applied.
func syntactic(ev []rpair) *closure {
	c := &closure{vals: map[string][]rval{}, keys: map[string]bool{}}
	for _, p := range ev {
		c.add(p.attr, p.val)
	}
	return c
}

func (p rpred) holds(v rval) bool {
	if p.op == "=" || p.op == "!=" {
		eq := v.num == p.val.num && v.key() == p.val.key()
		return eq == (p.op == "=")
	}
	if !v.num || !p.val.num {
		if v.num || p.val.num {
			return false
		}
		c := strings.Compare(v.s, p.val.s)
		return cmpHolds(p.op, c)
	}
	switch {
	case v.n < p.val.n:
		return cmpHolds(p.op, -1)
	case v.n > p.val.n:
		return cmpHolds(p.op, 1)
	}
	return cmpHolds(p.op, 0)
}

func cmpHolds(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// matches reports whether every predicate holds for some value of its
// attribute (subscription attributes are canonicalized too).
func (kb *refKB) matches(s rsub, c *closure) bool {
	for _, p := range s {
		ok := false
		for _, v := range c.vals[kb.canon(p.attr)] {
			if p.holds(v) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// syntacticMatch evaluates a subscription against the raw publication.
func syntacticMatch(s rsub, c *closure) bool {
	for _, p := range s {
		ok := false
		for _, v := range c.vals[p.attr] {
			if p.holds(v) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// matchAll brute-forces every subscription against one publication and
// returns the indexes of those that match, ascending.
func (kb *refKB) matchAll(subs []rsub, ev []rpair) []int {
	c := kb.close(ev)
	var out []int
	for i, s := range subs {
		if kb.matches(s, c) {
			out = append(out, i)
		}
	}
	return out
}

// --- conversion from the generators' message types ---

func toRval(v message.Value) rval {
	if v.Kind() == message.KindString {
		return rstr(v.Str())
	}
	if f, ok := v.AsFloat(); ok {
		return rnum(f)
	}
	return rstr(v.String())
}

func toRevent(ev message.Event) []rpair {
	out := make([]rpair, 0, ev.Len())
	for _, p := range ev.Pairs() {
		out = append(out, rpair{attr: p.Attr, val: toRval(p.Val)})
	}
	return out
}

func toRsub(preds []message.Predicate) rsub {
	out := make(rsub, 0, len(preds))
	for _, p := range preds {
		out = append(out, rpred{attr: p.Attr, op: p.Op.String(), val: toRval(p.Val)})
	}
	return out
}

// sortedKeys is a small helper for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
