package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"stopss/internal/message"
	"stopss/internal/sublang"
	"stopss/internal/workload"
)

// spec fixes a workload's shape. Every count is per run; the inputs
// themselves come from the seed.
type spec struct {
	name     string
	brokers  int     // 1, or 3 for the A–B–C line
	fsync    bool    // journal fsync on every broker
	openRate float64 // open-loop publications per second
	// setups is how many times a run sets up; setup_s is their median.
	// The line's set-up is short (~0.3 s), so it takes more of them for a
	// median that one hypervisor stall does not move.
	setups int
	// Side operations, scheduled by publication count.
	churnEvery int // one subscribe and one unsubscribe every N publications
	churnLive  int // churn subscriptions kept alive at once
	kbEvery    int // one knowledge delta every N publications
	cycleEvery int // one detach (and, half-way, its resume) every N open-loop publications; set per run
}

var specs = map[string]spec{
	"jobs-fanout": {
		name: "jobs-fanout", brokers: 1, openRate: 50, setups: 3,
		churnEvery: 2, churnLive: 64, kbEvery: 1000,
	},
	"catalog-match": {
		name: "catalog-match", brokers: 1, openRate: 100, setups: 3,
		churnEvery: 2, churnLive: 256, kbEvery: 1000,
	},
	"federated-durable": {
		name: "federated-durable", brokers: 3, fsync: true, openRate: 40, setups: 7,
		churnEvery: 2, churnLive: 64, kbEvery: 1000,
	},
}

// subIn is one subscription of the generated population.
type subIn struct {
	text    string
	ref     rsub
	client  string
	broker  int // index into the broker line (0 = A)
	durable bool
	cycle   bool // takes part in detach/resume cycles
}

// pubIn is one distinct publication shape.
type pubIn struct {
	text string
	ref  []rpair
}

// deltaIn is one knowledge delta: the JSON line the program receives and
// the same change applied to the reference knowledge.
type deltaIn struct {
	line  string
	apply func(*refKB)
}

// inputs is everything one run sends, made from the seed alone.
type inputs struct {
	spec
	seed     int64
	ontology string // ODL text for -ontology; "" selects the embedded job-finder domain
	kb       *refKB // the reference knowledge at genesis
	base     []subIn
	churn    []subIn // cycled through: churn[j % len] is subscribed at churn step j
	pool     []pubIn
	order    []int32 // publication i publishes pool[order[i % len(order)]]
	deltas   []deltaIn
	sentinel []subIn // one per broker: proves the overlay has routed every subscription
	// The recovery round of federated-durable uses fixed inputs that do
	// not depend on the seed.
	recoverySubs []subIn
	recoveryPubs []pubIn

	kbMu sync.Mutex
	kbs  []*refKB                 // kbs[v]: the reference knowledge after v deltas
	idx  map[int]map[string][]int // baseIndex per knowledge version
}

// sinkBroker is the broker whose subscribers the side operations use:
// the single broker, or C at the end of the line.
func (in *inputs) sinkBroker() int { return in.brokers - 1 }

func (in *inputs) pub(i int) pubIn { return in.pool[in.order[i%len(in.order)]] }

func makeInputs(name string, seed int64) (*inputs, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want jobs-fanout, catalog-match or federated-durable)", name)
	}
	in := &inputs{spec: sp, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	var err error
	switch name {
	case "catalog-match":
		err = in.makeCatalog(rng)
	default:
		in.makeJobs(rng)
	}
	if err != nil {
		return nil, err
	}
	in.order = make([]int32, 1<<17)
	for i := range in.order {
		in.order[i] = int32(rng.Intn(len(in.pool)))
	}
	for b := 0; b < in.brokers; b++ {
		in.sentinel = append(in.sentinel, mkSub(fmt.Sprintf("sentinel-%d", b), b,
			[]message.Predicate{message.Pred("perfbench sentinel", message.OpEq, message.Int(int64(b)))}))
	}
	if in.brokers > 1 {
		in.makeRecovery()
	}
	return in, nil
}

func mkSub(client string, broker int, preds []message.Predicate) subIn {
	return subIn{text: sublang.FormatSubscription(preds), ref: toRsub(preds), client: client, broker: broker}
}

func mkPub(ev message.Event) pubIn {
	return pubIn{text: sublang.FormatEvent(ev), ref: toRevent(ev)}
}

// --- jobs domain (jobs-fanout, federated-durable) ---

// jobsKB is the reference's own statement of the embedded job-finder
// ontology (paper §1, §3.1): the synonyms, the degree and developer
// concept trees, experience = 2003 − graduation year, and the
// mainframe → COBOL pair maps.
func jobsKB() *refKB {
	kb := newRefKB()
	kb.addSynonyms("university", "school", "college", "alma mater")
	kb.addSynonyms("professional experience", "work experience")
	kb.addSynonyms("degree", "diploma", "qualification")
	kb.addSynonyms("position", "role", "title")
	kb.addSynonyms("skill", "competency")
	for _, e := range [][2]string{
		{"graduate degree", "degree-level"}, {"undergraduate degree", "degree-level"},
		{"PhD", "graduate degree"}, {"MSc", "graduate degree"}, {"MBA", "graduate degree"},
		{"BSc", "undergraduate degree"}, {"BA", "undergraduate degree"},
		{"mainframe developer", "software developer"}, {"web developer", "software developer"},
		{"COBOL programmer", "mainframe developer"},
		{"frontend developer", "web developer"}, {"backend developer", "web developer"},
	} {
		kb.addIsA(e[0], e[1])
	}
	kb.rules = append(kb.rules, rrule{src: "graduation year", dst: "professional experience",
		derive: func(v rval) (rval, bool) { return rnum(2003 - v.n), v.num }})
	for _, pos := range []string{"mainframe developer", "COBOL programmer"} {
		m := rstr(pos)
		kb.rules = append(kb.rules, rrule{src: "position", match: &m,
			out: []rpair{{"skill", rstr("COBOL")}, {"era", rstr("1960-1980")}}})
	}
	return kb
}

// Late terms are names the knowledge deltas introduce during the run;
// some publications use them from the start, so they match differently
// before and after their delta.
const lateTerms = 64

func (in *inputs) makeJobs(rng *rand.Rand) {
	in.kb = jobsKB()
	jf := workload.NewJobFinder(rng.Int63())
	nBase := 2400
	if in.brokers > 1 {
		nBase = 800
	}
	for i := 0; i < nBase; i++ {
		company := fmt.Sprintf("company-%d", i)
		s := jf.RecruiterSubscription(company)
		b := 0
		if in.brokers > 1 {
			b = 1 + i%2 // B and C
		}
		si := mkSub(company, b, s.Preds)
		// On the line, every other subscription at C is durable.
		si.durable = in.brokers > 1 && b == 2 && i%4 == 1
		in.base = append(in.base, si)
	}
	in.addCyclers(func(k int) []message.Predicate {
		u := []string{"Toronto", "Waterloo", "McGill", "UBC", "Queens", "York", "Carleton"}[k%7]
		return []message.Predicate{message.Pred("university", message.OpEq, message.String(u))}
	})
	for j := 0; j < 256; j++ {
		s := jf.RecruiterSubscription("churn")
		in.churn = append(in.churn, mkSub("churn", in.sinkBroker(), s.Preds))
	}
	for i := 0; i < 4096; i++ {
		ev := jf.Resume()
		pairs := ev.Pairs()
		var out message.Event
		for _, p := range pairs {
			switch {
			case p.Attr == "school" && rng.Intn(8) == 0:
				p.Attr = fmt.Sprintf("campus%d", rng.Intn(lateTerms))
			case p.Attr == "degree" && rng.Intn(8) == 0:
				p.Val = message.String(fmt.Sprintf("degree%d", rng.Intn(lateTerms)))
			}
			out.Add(p.Attr, p.Val)
		}
		in.pool = append(in.pool, mkPub(out))
	}
	for k := 0; k < 4*lateTerms; k++ {
		id := k / 2
		if k%2 == 0 {
			alias := fmt.Sprintf("campus%d", id)
			in.deltas = append(in.deltas, synDelta(seedEpoch(in.seed), k, "university", alias))
		} else {
			child := fmt.Sprintf("degree%d", id)
			parent := []string{"graduate degree", "undergraduate degree"}[id%2]
			in.deltas = append(in.deltas, isaDelta(seedEpoch(in.seed), k, child, parent))
		}
	}
}

// addCyclers appends the durable subscriptions that go through detach
// and resume. They are broad, so that each detached window misses some
// publications that the resume must replay.
func (in *inputs) addCyclers(preds func(k int) []message.Predicate) {
	for k := 0; k < 8; k++ {
		s := mkSub(fmt.Sprintf("cycler-%d", k), in.sinkBroker(), preds(k))
		s.durable, s.cycle = true, true
		in.base = append(in.base, s)
	}
}

func seedEpoch(seed int64) string { return fmt.Sprintf("s%d", seed) }

func synDelta(epoch string, k int, root, alias string) deltaIn {
	line, _ := json.Marshal(map[string]any{"origin": "perfbench", "epoch": epoch, "seq": k + 1,
		"op": "add_synonym", "root": root, "terms": []string{alias}})
	return deltaIn{line: string(line), apply: func(kb *refKB) { kb.addSynonyms(root, alias) }}
}

func isaDelta(epoch string, k int, child, parent string) deltaIn {
	line, _ := json.Marshal(map[string]any{"origin": "perfbench", "epoch": epoch, "seq": k + 1,
		"op": "add_isa", "child": child, "parent": parent})
	return deltaIn{line: string(line), apply: func(kb *refKB) { kb.addIsA(child, parent) }}
}

// makeRecovery builds the fixed recovery round of federated-durable:
// durable subscribers at C and publications that match all of them.
func (in *inputs) makeRecovery() {
	for i := 0; i < 4; i++ {
		preds := []message.Predicate{
			message.Pred("university", message.OpEq, message.String("Recovery")),
			message.Pred("degree", message.OpEq, message.String("graduate degree")),
		}
		s := mkSub(fmt.Sprintf("recovery-%d", i), 2, preds)
		s.durable = true
		in.recoverySubs = append(in.recoverySubs, s)
	}
	for i := 0; i < 4; i++ {
		var ev message.Event
		ev.Add("school", message.String("Recovery"))
		ev.Add("degree", message.String([]string{"PhD", "MSc", "MBA", "PhD"}[i]))
		ev.Add("graduation year", message.Int(int64(1990+i)))
		in.recoveryPubs = append(in.recoveryPubs, mkPub(ev))
	}
}

// --- generated catalog (catalog-match) ---

var catalogCfg = workload.Config{
	Attributes: 20, ValuesPerAttr: 40, NumericAttrs: 5, NumericRange: 60, EqualityFrac: 0.9,
	PredsMin: 2, PredsMax: 4, PairsMin: 4, PairsMax: 8,
	SynonymsPerAttr: 3, ConceptTrees: 4, ConceptDepth: 4, ConceptFanout: 3,
	ConceptProb: 0.3, SynonymProb: 0.5,
}

// The catalog's mapping chain: hop1 = attr01 + 1, hop2 = hop1 + 1.
const (
	chainSrc  = "attr01"
	chainHop1 = "hop1-attr01"
	chainHop2 = "hop2-attr01"
)

func rootAttr(attr string) string {
	if i := strings.IndexByte(attr, '~'); i >= 0 {
		return attr[:i]
	}
	return attr
}

func (in *inputs) makeCatalog(rng *rand.Rand) error {
	cfg := catalogCfg
	cfg.Seed = rng.Int63()
	g, err := workload.New(cfg)
	if err != nil {
		return err
	}
	in.ontology, in.kb = catalogKB(cfg)
	for i := 0; i < 24000; i++ {
		s := g.Subscription(fmt.Sprintf("shop-%d", i%200))
		in.base = append(in.base, mkSub(s.Subscriber, 0, chainPreds(s.Preds, rng)))
	}
	in.addCyclers(func(k int) []message.Predicate {
		return []message.Predicate{message.Pred("attr00", message.OpGe, message.Int(int64(5*k)))}
	})
	for j := 0; j < 512; j++ {
		s := g.Subscription("churn")
		in.churn = append(in.churn, mkSub("churn", 0, chainPreds(s.Preds, rng)))
	}
	// 3000 distinct event shapes: more than the 1024-entry expansion
	// cache holds, so publications both hit and miss it.
	for len(in.pool) < 3000 {
		ev := g.Event()
		seen := map[string]bool{}
		var out message.Event
		for _, p := range ev.Pairs() {
			r := rootAttr(p.Attr)
			if seen[r] {
				continue // one value per attribute keeps mapping inputs unambiguous
			}
			seen[r] = true
			attr := p.Attr
			if rng.Intn(10) == 0 {
				// Late aliases of attrNN are the ids ≡ NN (mod Attributes),
				// the ones the synonym deltas below introduce for it.
				var idx int
				fmt.Sscanf(r, "attr%d", &idx)
				ids := (lateTerms - idx + cfg.Attributes - 1) / cfg.Attributes
				attr = fmt.Sprintf("%s~late%d", r, idx+cfg.Attributes*rng.Intn(ids))
			}
			val := p.Val
			if val.Kind() == message.KindString && strings.HasPrefix(val.Str(), "concept") && rng.Intn(6) == 0 {
				val = message.String(fmt.Sprintf("late%d", rng.Intn(lateTerms)))
			}
			out.Add(attr, val)
		}
		in.pool = append(in.pool, mkPub(out))
	}
	epoch := seedEpoch(in.seed)
	for k := 0; k < 4*lateTerms; k++ {
		id := k / 2
		if k%2 == 0 {
			root := fmt.Sprintf("attr%02d", id%cfg.Attributes)
			in.deltas = append(in.deltas, synDelta(epoch, k, root, fmt.Sprintf("%s~late%d", root, id)))
		} else {
			// Each late term joins a level-2 concept, so subscriptions on
			// that concept or its ancestors start to match it.
			parent := fmt.Sprintf("concept%d.%d.%d", id%cfg.ConceptTrees, id%3, (id/3)%3)
			in.deltas = append(in.deltas, isaDelta(epoch, k, fmt.Sprintf("late%d", id), parent))
		}
	}
	return nil
}

// chainPreds moves half of the predicates on the chain's source onto
// its second hop (hop2 = attr01 + 2), so they match only through the
// mapping chain.
func chainPreds(preds []message.Predicate, rng *rand.Rand) []message.Predicate {
	out := make([]message.Predicate, len(preds))
	copy(out, preds)
	for i, p := range out {
		if p.Attr == chainSrc && rng.Intn(2) == 0 {
			if n, ok := p.Val.AsFloat(); ok {
				out[i] = message.Pred(chainHop2, p.Op, message.Int(int64(n)+2))
			}
		}
	}
	return out
}

// catalogKB writes the catalog's knowledge as ODL for -ontology and
// states the same knowledge to the reference.
func catalogKB(cfg workload.Config) (string, *refKB) {
	kb := newRefKB()
	var b strings.Builder
	b.WriteString("domain catalog\n\nsynonyms {\n")
	for a := 0; a < cfg.Attributes; a++ {
		root := fmt.Sprintf("attr%02d", a)
		var aliases, quoted []string
		for s := 0; s < cfg.SynonymsPerAttr; s++ {
			alias := fmt.Sprintf("%s~syn%d", root, s)
			aliases = append(aliases, alias)
			quoted = append(quoted, fmt.Sprintf("%q", alias))
		}
		kb.addSynonyms(root, aliases...)
		fmt.Fprintf(&b, "    %q: %s\n", root, strings.Join(quoted, ", "))
	}
	b.WriteString("}\n\nconcepts {\n")
	var tree func(term string, depth int, indent string)
	tree = func(term string, depth int, indent string) {
		if depth == cfg.ConceptDepth {
			fmt.Fprintf(&b, "%s%q\n", indent, term)
			return
		}
		fmt.Fprintf(&b, "%s%q {\n", indent, term)
		for f := 0; f < cfg.ConceptFanout; f++ {
			child := fmt.Sprintf("%s.%d", term, f)
			kb.addIsA(child, term)
			tree(child, depth+1, indent+"    ")
		}
		fmt.Fprintf(&b, "%s}\n", indent)
	}
	for t := 0; t < cfg.ConceptTrees; t++ {
		tree(fmt.Sprintf("concept%d", t), 0, "    ")
	}
	b.WriteString("}\n\nmappings {\n")
	fmt.Fprintf(&b, "    rule hop1 when exists(%q) derive %q = attr(%q) + 1\n", chainSrc, chainHop1, chainSrc)
	fmt.Fprintf(&b, "    rule hop2 when exists(%q) derive %q = attr(%q) + 1\n", chainHop1, chainHop2, chainHop1)
	b.WriteString("}\n")
	plus1 := func(v rval) (rval, bool) { return rnum(v.n + 1), v.num }
	kb.rules = append(kb.rules,
		rrule{src: chainSrc, dst: chainHop1, derive: plus1},
		rrule{src: chainHop1, dst: chainHop2, derive: plus1})
	return b.String(), kb
}
