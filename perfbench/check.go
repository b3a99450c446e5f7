package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// kbAt returns the reference knowledge after the first v deltas.
func (in *inputs) kbAt(v int) *refKB {
	in.kbMu.Lock()
	defer in.kbMu.Unlock()
	if len(in.kbs) == 0 {
		in.kbs = append(in.kbs, in.kb)
	}
	for len(in.kbs) <= v {
		c := in.kbs[len(in.kbs)-1].clone()
		in.deltas[len(in.kbs)-1].apply(c)
		in.kbs = append(in.kbs, c)
	}
	return in.kbs[v]
}

// baseIndex buckets the base population for the reference: a
// subscription whose first equality predicate is (a = x) can only match
// a closure holding that pair, and one with no equality predicate only a
// closure holding its first attribute (canonical under knowledge version
// v; -1: as written, for syntactic matching). matchBase evaluates just
// the buckets the closure's pairs and attributes select — every
// subscription in them in full.
func (in *inputs) baseIndex(v int) map[string][]int {
	in.kbMu.Lock()
	idx, ok := in.idx[v]
	in.kbMu.Unlock()
	if ok {
		return idx
	}
	canon := func(a string) string { return a }
	if v >= 0 {
		canon = in.kbAt(v).canon
	}
	idx = map[string][]int{}
	for bi, s := range in.base {
		key := canon(s.ref[0].attr)
		for _, p := range s.ref {
			if p.op == "=" {
				key = canon(p.attr) + "\x1f" + p.val.key()
				break
			}
		}
		idx[key] = append(idx[key], bi)
	}
	in.kbMu.Lock()
	if in.idx == nil {
		in.idx = map[int]map[string][]int{}
	}
	in.idx[v] = idx
	in.kbMu.Unlock()
	return idx
}

// matchBase returns the base subscriptions matching closure c,
// ascending: semantically under kb, or syntactically when kb is nil.
func (in *inputs) matchBase(kb *refKB, idx map[string][]int, c *closure) []int {
	var m []int
	try := func(bucket []int) {
		for _, bi := range bucket {
			s := in.base[bi].ref
			if (kb != nil && kb.matches(s, c)) || (kb == nil && syntacticMatch(s, c)) {
				m = append(m, bi)
			}
		}
	}
	for attr, vs := range c.vals {
		try(idx[attr])
		for _, v := range vs {
			try(idx[attr+"\x1f"+v.key()])
		}
	}
	sort.Ints(m)
	return m
}

// versions bounds the knowledge a publication can have met: every delta
// applied on all brokers before it was sent, at least; every delta sent
// before it was acked (plus the propagation margin on the line), at
// most. Deltas only add knowledge, so matches under lo are certain and
// those under hi alone may go either way.
func (r *run) versions(p *pubRec) (lo, hi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.deltaRecs {
		if d.err != nil {
			continue
		}
		if d.converged.Before(p.sent) {
			lo++
		}
		if d.sent.Before(p.acked.Add(r.margin())) {
			hi++
		}
	}
	return lo, hi
}

// margin is how long a change at one broker may take to reach the
// others: on the line, a publication reaches C after A acked it, and a
// subscription made at C reaches A later still.
func (r *run) margin() time.Duration {
	if r.in.brokers > 1 {
		return 500 * time.Millisecond
	}
	return 0
}

// pairKey names one (publication, subscription) delivery at one broker.
type pairKey struct {
	pub    string
	broker int
	sub    uint64
}

// verdict is what the checks found.
type verdict struct {
	correct     bool
	problems    []string
	deliverReq  int // (publication, subscription) pairs that had to arrive
	deliverMiss int
	durableDups int
	plainDups   int
	unexpected  int
	replayNewer int // replayed to a resumed subscription under newer knowledge
	semSyntax   int // publications checked for semantic ⊇ syntactic
	firstSeen   map[pairKey]time.Time
}

func (v *verdict) fail(format string, args ...any) {
	v.correct = false
	if len(v.problems) < 12 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// want classifies an expected delivery.
type want struct {
	certain bool // must arrive; otherwise it may
	durable bool
}

// expected is the reference's verdict on one publication: every
// (broker, subscription) pair it must or may reach.
func (r *run) expected(p *pubRec) map[pairKey]want {
	in := r.in
	lo, hi := r.versions(p)
	exp := map[pairKey]want{}
	for _, bi := range r.refBase(p.i, hi) {
		s := in.base[bi]
		exp[pairKey{p.pubID, s.broker, r.baseIDs[bi]}] = want{durable: s.durable}
	}
	for _, bi := range r.refBase(p.i, lo) {
		s := in.base[bi]
		exp[pairKey{p.pubID, s.broker, r.baseIDs[bi]}] = want{certain: true, durable: s.durable}
	}
	// Churn subscriptions near the publication in time: the window only
	// bounds the scan, the times decide.
	m := r.margin()
	j := p.i / in.churnEvery
	kbLo, kbHi := in.kbAt(lo), in.kbAt(hi)
	var clLo, clHi *closure
	r.mu.Lock()
	churn := r.churn
	r.mu.Unlock()
	for k := j - in.churnLive - 256; k < j+256 && k < len(churn); k++ {
		if k < 0 || churn[k] == nil {
			continue
		}
		c := churn[k]
		if c.id == 0 || c.subSent.After(p.acked.Add(m)) || (c.unsubscribed && c.unsubAckd.Before(p.sent)) {
			continue
		}
		if clHi == nil {
			clLo, clHi = kbLo.close(in.pub(p.i).ref), kbHi.close(in.pub(p.i).ref)
		}
		s := in.churn[c.j%len(in.churn)].ref
		if !kbHi.matches(s, clHi) {
			continue
		}
		inTime := c.subAcked.Add(m).Before(p.sent) && (!c.unsubscribed || c.unsubSent.After(p.acked.Add(m)))
		exp[pairKey{p.pubID, in.sinkBroker(), c.id}] = want{certain: inTime && kbLo.matches(s, clLo)}
	}
	return exp
}

// check compares every ack and every delivery of the timed phases with
// the reference, and runs the property checks.
func (r *run) check() *verdict {
	in := r.in
	v := &verdict{correct: true, firstSeen: map[pairKey]time.Time{}}
	counts := map[pairKey]int{}
	byPub := map[string][]pairKey{}
	for b, s := range r.sinks {
		for _, d := range s.deliveries() {
			if !d.valid {
				v.fail("sink %d: undecodable notification", b)
				continue
			}
			k := pairKey{d.pub, b, d.sub}
			if counts[k] == 0 {
				byPub[d.pub] = append(byPub[d.pub], k)
			}
			counts[k]++
			if t, ok := v.firstSeen[k]; !ok || d.at.Before(t) {
				v.firstSeen[k] = d.at
			}
		}
	}
	final := in.kbAt(len(r.deltaRecs))
	pubs := sortedPubs(r.pubs)
	r.precompute(pubs)
	for _, p := range pubs {
		if p.err != nil {
			continue
		}
		exp := r.expected(p)
		// The ack lists the publishing broker's own matches.
		acked := map[uint64]bool{}
		for _, id := range p.matches {
			acked[id] = true
			if _, ok := exp[pairKey{p.pubID, 0, id}]; !ok {
				v.fail("pub %d (%s): ack lists subscription %d the reference does not match", p.i, p.pubID, id)
			}
		}
		for k, w := range exp {
			if k.broker != 0 || !w.certain || acked[k.sub] {
				continue
			}
			ref := r.byID[0][k.sub]
			if ref.kind == 'b' && in.base[ref.idx].cycle {
				continue // a detached subscription is matched on resume instead
			}
			v.fail("pub %d (%s): ack misses subscription %d", p.i, p.pubID, k.sub)
		}
		// Semantic matching includes every syntactic match.
		if in.brokers == 1 {
			v.semSyntax++
			for _, bi := range r.syntacticBase(p.i) {
				if !acked[r.baseIDs[bi]] && !in.base[bi].cycle {
					v.fail("pub %d: syntactic match %d missing from the semantic result", p.i, bi)
				}
			}
		}
		// Deliveries: every certain pair and every acked base pair
		// arrives; plain pairs exactly once, durable pairs at least once.
		// (An acked churn subscription may be unsubscribed before the
		// broker dispatches its notification; it is then skipped.)
		for k, w := range exp {
			n := counts[k]
			if w.certain || (k.broker == 0 && acked[k.sub] && r.byID[0][k.sub].kind != 'c') {
				v.deliverReq++
				if n == 0 {
					v.deliverMiss++
					if v.deliverMiss <= 3 {
						v.problems = append(v.problems, fmt.Sprintf("pub %d (%s): no delivery to broker %d subscription %d", p.i, p.pubID, k.broker, k.sub))
					}
				}
			}
			if n > 1 {
				if w.durable {
					v.durableDups += n - 1
				} else {
					v.plainDups += n - 1
					v.fail("pub %d: plain subscription %d at broker %d delivered %d times", p.i, k.sub, k.broker, n)
				}
			}
		}
		for _, k := range byPub[p.pubID] {
			if _, ok := exp[k]; ok {
				continue
			}
			// A resume replays the missed publications matched under the
			// knowledge of the resume, not of the publication.
			if ref := r.byID[k.broker][k.sub]; ref.kind == 'b' && in.base[ref.idx].cycle &&
				final.matches(in.base[ref.idx].ref, final.close(in.pub(p.i).ref)) {
				v.replayNewer++
				continue
			}
			v.unexpected++
			v.fail("pub %d (%s): unexpected delivery to broker %d subscription %d", p.i, p.pubID, k.broker, k.sub)
		}
	}
	return v
}

// precompute fills the reference memo for every publication in parallel
// (two workers: the brute-force matcher is the check's main cost).
func (r *run) precompute(pubs []*pubRec) {
	var wg sync.WaitGroup
	ch := make(chan *pubRec)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range ch {
				lo, hi := r.versions(p)
				r.refBase(p.i, lo)
				r.refBase(p.i, hi)
				if r.in.brokers == 1 {
					r.syntacticBase(p.i)
				}
			}
		}()
	}
	for _, p := range pubs {
		if p.err == nil {
			ch <- p
		}
	}
	close(ch)
	wg.Wait()
}

// syntacticBase is the base population's matches against the raw
// publication, no knowledge applied (memoized per pool entry).
func (r *run) syntacticBase(i int) []int {
	key := [2]int{int(r.in.order[i%len(r.in.order)]), -1}
	r.mu.Lock()
	m, ok := r.refMemo[key]
	r.mu.Unlock()
	if ok {
		return m
	}
	m = r.in.matchBase(nil, r.in.baseIndex(-1), syntactic(r.in.pub(i).ref))
	r.mu.Lock()
	r.refMemo[key] = m
	r.mu.Unlock()
	return m
}

// --- metrics of the timed phases ---

type phaseTimes struct {
	openN    int
	capPubs  int           // publications completed in the capacity phase
	capDur   time.Duration // and the phase's length
	cpuTicks int64         // broker CPU over the capacity phase, in USER_HZ ticks
	rss      float64
	setupS   []float64
}

// e2e computes the end-to-end metrics from the records and the verdict.
func (r *run) e2e(pt phaseTimes, v *verdict) (metricList, []string) {
	in := r.in
	var m metricList
	var missing []string
	note := func(err error) {
		if err != nil {
			missing = append(missing, err.Error())
		}
	}
	var pubLat, late, delLat []float64
	for _, p := range r.pubs {
		if p.phase != phaseOpen || p.err != nil {
			continue
		}
		pubLat = append(pubLat, ms(p.acked.Sub(p.sched)))
		late = append(late, ms(p.sent.Sub(p.sched)))
	}
	// Deliver latency: first arrival of every matched pair of an
	// open-loop publication, from the publication's scheduled send.
	// Pairs of cycling subscriptions are left out: while detached they
	// wait for the resume, which resume_p50_ms measures.
	open := map[string]*pubRec{}
	for _, p := range r.pubs {
		if p.phase == phaseOpen && p.err == nil {
			open[p.pubID] = p
		}
	}
	cycling := map[uint64]bool{}
	for bi, s := range in.base {
		if s.cycle {
			cycling[r.baseIDs[bi]] = true
		}
	}
	for k, t := range v.firstSeen {
		p := open[k.pub]
		if p == nil || (k.broker == in.sinkBroker() && cycling[k.sub]) {
			continue
		}
		delLat = append(delLat, ms(t.Sub(p.sched)))
	}
	m.add("setup_s", median(pt.setupS), "s", len(pt.setupS))
	note(m.addPct("publish_p50_ms", pubLat, 0.50, "ms"))
	m.addTail("publish_p90_ms", pubLat, 0.90, "ms")
	m.addTail("publish_p99_ms", pubLat, 0.99, "ms")
	note(m.addPct("deliver_p50_ms", delLat, 0.50, "ms"))
	m.addTail("deliver_p90_ms", delLat, 0.90, "ms")
	m.addTail("deliver_p99_ms", delLat, 0.99, "ms")
	capPubs := float64(pt.capPubs)
	if pt.capDur > 0 {
		m.add("capacity_pubs_per_s", capPubs/pt.capDur.Seconds(), "pubs/s", pt.capPubs)
	}
	if capPubs > 0 {
		const userHZ = 100 // clock ticks per second of /proc/<pid>/stat on Linux
		m.add("server_cpu_ms_per_pub", float64(pt.cpuTicks)*1000/userHZ/capPubs, "ms", pt.capPubs)
	}
	m.add("server_rss_mb", pt.rss, "MB", 0)
	note(m.addPct("subscribe_p50_ms", r.subLat, 0.50, "ms"))
	m.addTail("subscribe_p90_ms", r.subLat, 0.90, "ms")
	m.addTail("subscribe_p99_ms", r.subLat, 0.99, "ms")
	m.addTail("resume_p50_ms", r.resumeLat(v), 0.50, "ms")
	m.add("generator_late_p50_ms", median(late), "ms", len(late))
	m.add("generator_late_max_ms", maxOf(late), "ms", len(late))
	return m, missing
}

// resumeLat measures each resume: from the request until the last
// notification the subscription missed while detached has arrived (or
// the resume ack, when that is later).
func (r *run) resumeLat(v *verdict) []float64 {
	in := r.in
	var out []float64
	for _, c := range r.cycles {
		if c == nil || !c.resumed {
			continue
		}
		id := r.baseIDs[c.base]
		end := c.resumeAck
		for _, p := range r.pubs {
			if p.err != nil || p.acked.After(c.resumeSent) || p.sent.Before(c.detachSent) {
				continue
			}
			if lo, _ := r.versions(p); !containsInt(r.refBase(p.i, lo), c.base) {
				continue
			}
			t, ok := v.firstSeen[pairKey{p.pubID, in.sinkBroker(), id}]
			if ok && t.After(c.resumeSent) && t.After(end) {
				end = t
			}
		}
		out = append(out, ms(end.Sub(c.resumeSent)))
	}
	return out
}

func containsInt(xs []int, x int) bool {
	i := sort.SearchInts(xs, x)
	return i < len(xs) && xs[i] == x
}
