package main

import (
	"math/rand"
	"testing"

	"stopss/internal/core"
	"stopss/internal/knowledge"
	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/sublang"
	"stopss/internal/workload"
)

func ev(pairs ...any) []rpair {
	var out []rpair
	for i := 0; i < len(pairs); i += 2 {
		var v rval
		switch x := pairs[i+1].(type) {
		case string:
			v = rstr(x)
		case int:
			v = rnum(float64(x))
		}
		out = append(out, rpair{pairs[i].(string), v})
	}
	return out
}

func sub(t *testing.T, text string) rsub {
	t.Helper()
	preds, err := sublang.ParseSubscription(text)
	if err != nil {
		t.Fatal(err)
	}
	return toRsub(preds)
}

// The job-finder cases the paper works by hand (§1, §3.1).
func TestReferencePaperCases(t *testing.T) {
	kb := jobsKB()
	kb.addIsA("M.Sc", "graduate degree")
	cases := []struct {
		name     string
		sub      string
		event    []rpair
		semantic bool
	}{
		{"school is a synonym of university", "(university = Toronto)", ev("school", "Toronto"), true},
		{"M.Sc is a graduate degree", "(degree = graduate degree)", ev("degree", "M.Sc"), true},
		{"graduate degree is a degree-level", "(degree = degree-level)", ev("degree", "M.Sc"), true},
		{"nothing is specialized", "(degree = M.Sc)", ev("degree", "graduate degree"), false},
		{"experience from graduation year", "(professional experience >= 4)", ev("graduation year", 1990), true},
		{"experience is 2003 - year", "(professional experience >= 14)", ev("graduation year", 1990), false},
		{"all three at once", "(university = Toronto) and (degree = graduate degree) and (professional experience >= 4)",
			ev("school", "Toronto", "degree", "M.Sc", "graduation year", 1990), true},
		{"COBOL programmer is a mainframe developer, who knows COBOL", "(skill = COBOL) and (position = software developer)",
			ev("position", "COBOL programmer"), true},
		{"synonym on the subscription side", "(work experience >= 10)", ev("graduation year", 1990), true},
	}
	for _, c := range cases {
		got := kb.matches(sub(t, c.sub), kb.close(c.event))
		if got != c.semantic {
			t.Errorf("%s: %s against %v = %v, want %v", c.name, c.sub, c.event, got, c.semantic)
		}
	}
	// Syntactically none of the semantic cases but the last literal one
	// matches: school is not university.
	if syntacticMatch(sub(t, "(university = Toronto)"), syntactic(ev("school", "Toronto"))) {
		t.Error("syntactic matching applied a synonym")
	}
}

func TestReferenceDeltas(t *testing.T) {
	in, err := makeInputs("jobs-fanout", 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sub(t, "(university = Toronto) and (degree = graduate degree)")
	e := ev("campus0", "Toronto", "degree", "degree0")
	if in.kbAt(0).matches(s, in.kbAt(0).close(e)) {
		t.Fatal("late terms matched before their deltas")
	}
	// Delta 0 makes campus0 a synonym of university, delta 1 makes
	// degree0 a graduate degree, delta 3 makes degree1 an undergraduate one.
	if in.kbAt(1).matches(s, in.kbAt(1).close(e)) {
		t.Fatal("degree0 matched before its delta")
	}
	if !in.kbAt(2).matches(s, in.kbAt(2).close(e)) {
		t.Fatal("late terms did not match after their deltas")
	}
	if in.kbAt(4).matches(s, in.kbAt(4).close(ev("campus0", "Toronto", "degree", "degree1"))) {
		t.Fatal("degree1 became a graduate degree")
	}
	if in.kbAt(0).matches(s, in.kbAt(0).close(e)) {
		t.Fatal("applying deltas changed an earlier knowledge version")
	}
}

func TestReferenceCatalogChain(t *testing.T) {
	_, kb := catalogKB(catalogCfg)
	c := kb.close(ev("attr01~syn2", 5, "attr07", "concept1.0.2.1.0"))
	for _, text := range []string{"(hop2-attr01 = 7)", "(hop1-attr01 >= 6)", "(attr07 = concept1)", "(attr07 = concept1.0.2)"} {
		if !kb.matches(sub(t, text), c) {
			t.Errorf("%s does not match the closure %v", text, c.vals)
		}
	}
	if kb.matches(sub(t, "(attr07 = concept1.0.2.1.0.1)"), c) {
		t.Error("closure specialized a concept")
	}
}

// Semantic matching includes every syntactic match (paper rule R2).
func TestReferenceSemanticCoversSyntactic(t *testing.T) {
	in, err := makeInputs("catalog-match", 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		e := in.pool[rng.Intn(len(in.pool))].ref
		sc, cl := syntactic(e), in.kb.close(e)
		for _, s := range in.base[:3000] {
			if syntacticMatch(s.ref, sc) && !in.kb.matches(s.ref, cl) {
				t.Fatalf("syntactic match lost semantically: %v against %v", s.ref, e)
			}
		}
	}
}

// The reference agrees with the program's engine on the inputs of every
// workload, at genesis knowledge. This pins the reference's model of the
// semantic stage, not the program: the runs check the program.
func TestReferenceAgreesWithEngine(t *testing.T) {
	for _, name := range []string{"jobs-fanout", "catalog-match"} {
		in, err := makeInputs(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		src := in.ontology
		if src == "" {
			src = workload.JobsODL
		}
		ont, err := ontology.Load(src, ontology.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := knowledge.NewBase(ont.Synonyms, ont.Hierarchy, ont.Mappings)
		m, _ := matching.New("counting")
		eng := core.NewEngine(base.Stage(semantic.FullConfig()), core.WithMatcher(m), core.WithKnowledge(base))
		subs := in.base
		if len(subs) > 4000 {
			subs = subs[:4000]
		}
		var refs []rsub
		for i, s := range subs {
			preds, err := sublang.ParseSubscription(s.text)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Subscribe(message.NewSubscription(message.SubID(i+1), s.client, preds...)); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, s.ref)
		}
		for k := 0; k < 300; k++ {
			p := in.pub(k)
			e, err := sublang.ParseEvent(p.text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Publish(e)
			if err != nil {
				t.Fatal(err)
			}
			if res.Expansion.Truncated {
				t.Fatalf("%s: expansion of %s hit the budget", name, p.text)
			}
			want := in.kb.matchAll(refs, p.ref)
			if len(want) != len(res.Matches) {
				t.Fatalf("%s: %s: engine matched %d subscriptions, reference %d", name, p.text, len(res.Matches), len(want))
			}
			for j, id := range res.Matches {
				if int(id) != want[j]+1 {
					t.Fatalf("%s: %s: engine and reference differ at %d: %d vs %d (%s)", name, p.text, j, id, want[j]+1, subs[want[j]].text)
				}
			}
		}
	}
}
