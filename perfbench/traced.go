package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/journal"
	"stopss/internal/knowledge"
	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/metrics"
	"stopss/internal/notify"
	"stopss/internal/ontology"
	"stopss/internal/overlay"
	"stopss/internal/semantic"
	"stopss/internal/store"
	"stopss/internal/sublang"
	"stopss/internal/trace"
	"stopss/internal/webapp"
	"stopss/internal/workload"
)

// The traced run hosts the same stack as stopss-server inside this
// process, assembled from the packages' public constructors behind real
// loopback listeners, and drives it with the same inputs. Timing shims
// on the public seams (HTTP handler, core.PubSub, notify.Transport,
// overlay.Transport) record spans; the brokers' own tracers supply the
// broker-level publish, match and journal spans by publication ID; and
// direct calls into the layers' public functions time what no seam
// exposes.

// span is one timed step. parent indexes tracedCluster.spans (-1: root).
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"`
	Pub    string    `json:"pub,omitempty"`
	Broker int       `json:"broker"`
	Sub    uint64    `json:"sub,omitempty"`
	Seq    uint64    `json:"journal_seq,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

type tracedBroker struct {
	name     string
	http     string
	eng      *core.Engine
	b        *broker.Broker
	notifier *notify.Engine
	jnl      *journal.Journal
	st       *store.Store
	node     *overlay.Node
	srv      *http.Server
	base0    core.Stats // engine stats when the timed phases began
}

type tracedCluster struct {
	dir          string
	overlayAddrs []string
	in           *inputs
	brokers      []*tracedBroker

	mu     sync.Mutex
	spans  []span
	active map[uint64]int // goroutine → its open webapp span

	ovBytes, ovWrites atomic.Int64
	applies           []applyRec
}

type applyRec struct {
	broker      int
	dur         time.Duration
	reindexed   int
	invalidated uint64
}

func newTracedCluster(dir string) *tracedCluster {
	return &tracedCluster{dir: dir, active: map[uint64]int{}}
}

func (tc *tracedCluster) add(s span) int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.spans = append(tc.spans, s)
	return len(tc.spans) - 1
}

// goid identifies the calling goroutine: the HTTP handler and the engine
// call it makes run on the same one, which is how a core.publish span
// finds its webapp parent.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func (tc *tracedCluster) parentSpan() (int, string) {
	g := goid()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if i, ok := tc.active[g]; ok {
		return i, tc.spans[i].Pub
	}
	return -1, ""
}

func (tc *tracedCluster) start(in *inputs, _ []string) (time.Time, error) {
	tc.in = in
	t0 := time.Now()
	tc.overlayAddrs = make([]string, in.brokers)
	for i := range tc.overlayAddrs {
		a, err := freePort()
		if err != nil {
			return t0, err
		}
		tc.overlayAddrs[i] = a
	}
	for i := 0; i < in.brokers; i++ {
		tb, err := tc.build(i, tc.overlayAddrs)
		if err != nil {
			return t0, err
		}
		tc.brokers = append(tc.brokers, tb)
	}
	return t0, nil
}

// build assembles broker i the way stopss-server does with the flags the
// measured runs use.
func (tc *tracedCluster) build(i int, overlayAddrs []string) (*tracedBroker, error) {
	in := tc.in
	name := fmt.Sprintf("broker-%d", i)
	if in.brokers > 1 {
		name = string(rune('A' + i))
	}
	dir := filepath.Join(tc.dir, name)
	if err := os.MkdirAll(filepath.Join(dir, "store"), 0o755); err != nil {
		return nil, err
	}
	src := in.ontology
	if src == "" {
		src = workload.JobsODL
	}
	ont, err := ontology.Load(src, ontology.Options{})
	if err != nil {
		return nil, err
	}
	kb := knowledge.NewBase(ont.Synonyms, ont.Hierarchy, ont.Mappings)
	m, err := matching.New("counting")
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(kb.Stage(semantic.FullConfig()), core.WithMatcher(m), core.WithMode(core.Semantic),
		core.WithKnowledge(kb), core.WithExpansionCache(core.DefaultExpansionCacheSize))
	notifier, err := notify.NewEngine(notify.Config{Workers: 8},
		&sendShim{Transport: notify.NewTCPTransport(0), tc: tc, broker: i},
		notify.NewUDPTransport(), notify.NewSMTPTransport("stopss@"+name), notify.NewSMSGateway(100, 64))
	if err != nil {
		return nil, err
	}
	tb := &tracedBroker{name: name, eng: eng, notifier: notifier}
	tb.b = broker.New(&pubsubShim{PubSub: eng, tc: tc, broker: i}, notifier)
	tb.b.SetKnowledgeOrigin(knowledge.NewOrigin(name))
	tb.jnl, err = journal.Open(journal.Config{Dir: filepath.Join(dir, "journal"), SegmentBytes: 8 << 20,
		Fsync: in.fsync, IndexEvery: 128, EphemeralCursors: true})
	if err != nil {
		return nil, err
	}
	tb.b.AttachJournal(tb.jnl)
	tb.st, err = store.Open(store.Config{Path: filepath.Join(dir, "store", "subs.heap"), Pages: 1024})
	if err != nil {
		return nil, err
	}
	if err := tb.b.AttachStore(tb.st); err != nil {
		return nil, err
	}
	// As the server does after a (here never present) snapshot restore.
	if _, err := tb.b.CatchUp(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	if in.brokers > 1 {
		var peers []string
		if i > 0 {
			peers = []string{overlayAddrs[i-1]}
		}
		tb.node, err = overlay.NewNode(overlay.Config{Name: name, Listen: overlayAddrs[i], Peers: peers,
			Transport: overlayShim{overlay.TCP(), tc}, Registry: reg, TraceSample: 1,
			OpsInterval: 10 * time.Second, Logf: func(string, ...any) {}}, tb.b)
		if err != nil {
			return nil, err
		}
		if err := tb.node.Start(); err != nil {
			return nil, err
		}
	} else {
		tb.b.SetTracer(trace.New(trace.Config{Broker: name, Sample: 1, Registry: reg}))
	}
	opts := []webapp.Option{webapp.WithMetrics("stopss", reg)}
	if tb.node != nil {
		opts = append(opts, webapp.WithCluster(tb.node.ClusterView))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tb.http = ln.Addr().String()
	tb.srv = &http.Server{Handler: &httpShim{h: webapp.NewServer(tb.b, opts...), tc: tc, broker: i},
		ReadHeaderTimeout: 5 * time.Second}
	go tb.srv.Serve(ln)
	return tb, nil
}

func (tc *tracedCluster) http(i int) string { return tc.brokers[i].http }
func (tc *tracedCluster) cpuTicks() int64   { return 0 }
func (tc *tracedCluster) rssMB() float64    { return 0 }

// crash stops broker i without writing a snapshot — in process, the
// nearest thing to kill -9: whatever the broker knows only in memory is
// gone when restart rebuilds it over the same journal and store.
func (tc *tracedCluster) crash(i int) error {
	tb := tc.brokers[i]
	tc.brokers[i] = nil
	tb.close()
	return nil
}

func (tc *tracedCluster) restart(i int) error {
	tb, err := tc.build(i, tc.overlayAddrs)
	if err != nil {
		return err
	}
	tc.brokers[i] = tb
	return nil
}

func (tb *tracedBroker) close() {
	tb.srv.Close()
	if tb.node != nil {
		tb.node.Close()
	}
	tb.notifier.Close()
	tb.jnl.Close()
	tb.st.Close()
}

func (tc *tracedCluster) stop() {
	for _, tb := range tc.brokers {
		if tb != nil {
			tb.close()
		}
	}
	tc.brokers = nil
}

// beginTimed drops the set-up spans and snapshots the engines' counters,
// so the per-layer figures describe the timed phases.
func (tc *tracedCluster) beginTimed() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var kept []span
	for _, s := range tc.spans {
		if strings.HasSuffix(s.Name, "subscribe") {
			kept = append(kept, s) // set-up subscriptions count for the subscribe layers
		}
	}
	for i := range kept {
		kept[i].Parent = -1
	}
	tc.spans = kept
	tc.applies = nil
	tc.active = map[uint64]int{}
	tc.ovBytes.Store(0)
	tc.ovWrites.Store(0)
	for _, tb := range tc.brokers {
		tb.base0 = tb.eng.Stats()
	}
}

// --- shims ---

// httpShim times every API request as a webapp span.
type httpShim struct {
	h      http.Handler
	tc     *tracedCluster
	broker int
}

type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (s *httpShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	if r.Method != http.MethodPost || strings.Contains(op, "/") {
		s.h.ServeHTTP(w, r)
		return
	}
	g := goid()
	idx := s.tc.add(span{Name: "webapp." + op, Start: time.Now(), Parent: -1, Broker: s.broker})
	s.tc.mu.Lock()
	s.tc.active[g] = idx
	s.tc.mu.Unlock()
	cw := &captureWriter{ResponseWriter: w}
	s.h.ServeHTTP(cw, r)
	end := time.Now()
	var body struct {
		PubID string `json:"pub_id"`
		ID    uint64 `json:"id"`
	}
	json.Unmarshal(cw.buf.Bytes(), &body)
	s.tc.mu.Lock()
	delete(s.tc.active, g)
	sp := &s.tc.spans[idx]
	sp.End, sp.Pub, sp.Sub = end, body.PubID, body.ID
	s.tc.mu.Unlock()
}

// pubsubShim wraps the engine behind the broker.
type pubsubShim struct {
	core.PubSub
	tc     *tracedCluster
	broker int
}

func (p *pubsubShim) Publish(ev message.Event) (core.MatchResult, error) {
	t0 := time.Now()
	res, err := p.PubSub.Publish(ev)
	t1 := time.Now()
	parent, pub := p.tc.parentSpan()
	i := p.tc.add(span{Name: "core.publish", Start: t0, End: t1, Parent: parent, Pub: pub, Broker: p.broker})
	// The engine's own split of its time, as children.
	p.tc.add(span{Name: "core.semantic", Start: t0, End: t0.Add(res.SemanticTime), Parent: i, Pub: pub, Broker: p.broker})
	p.tc.add(span{Name: "core.match", Start: t1.Add(-res.MatchTime), End: t1, Parent: i, Pub: pub, Broker: p.broker})
	return res, err
}

func (p *pubsubShim) Subscribe(s message.Subscription) error {
	t0 := time.Now()
	err := p.PubSub.Subscribe(s)
	parent, _ := p.tc.parentSpan()
	p.tc.add(span{Name: "core.subscribe", Start: t0, End: time.Now(), Parent: parent, Broker: p.broker})
	return err
}

func (p *pubsubShim) Unsubscribe(id message.SubID) bool {
	t0 := time.Now()
	ok := p.PubSub.Unsubscribe(id)
	parent, _ := p.tc.parentSpan()
	p.tc.add(span{Name: "core.unsubscribe", Start: t0, End: time.Now(), Parent: parent, Broker: p.broker})
	return ok
}

func (p *pubsubShim) ApplyKnowledge(d knowledge.Delta) (core.KnowledgeReport, error) {
	inv0 := p.PubSub.Stats().ExpansionInvalidated
	t0 := time.Now()
	rep, err := p.PubSub.ApplyKnowledge(d)
	dur := time.Since(t0)
	inv := p.PubSub.Stats().ExpansionInvalidated - inv0
	if err == nil && rep.Applied {
		p.tc.mu.Lock()
		p.tc.applies = append(p.tc.applies, applyRec{p.broker, dur, rep.Reindexed, inv})
		p.tc.mu.Unlock()
	}
	return rep, err
}

// sendShim wraps the TCP notification transport.
type sendShim struct {
	notify.Transport
	tc     *tracedCluster
	broker int
}

func (s *sendShim) Send(addr string, n notify.Notification) error {
	t0 := time.Now()
	err := s.Transport.Send(addr, n)
	name := "notify.send"
	if err != nil {
		name = "notify.send_failed"
	}
	s.tc.add(span{Name: name, Start: t0, End: time.Now(), Parent: -1, Pub: n.PubID, Broker: s.broker,
		Sub: uint64(n.SubID), Seq: n.JournalSeq})
	return err
}

// overlayShim counts the bytes and writes the overlay puts on its links.
type overlayShim struct {
	overlay.Transport
	tc *tracedCluster
}

type countedListener struct {
	overlay.Listener
	tc *tracedCluster
}

type countedConn struct {
	overlay.Conn
	tc *tracedCluster
}

func (o overlayShim) Listen(addr string) (overlay.Listener, error) {
	l, err := o.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countedListener{l, o.tc}, nil
}

func (o overlayShim) Dial(addr string, timeout time.Duration) (overlay.Conn, error) {
	c, err := o.Transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return countedConn{c, o.tc}, nil
}

func (l countedListener) Accept() (overlay.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{c, l.tc}, nil
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tc.ovBytes.Add(int64(n))
	c.tc.ovWrites.Add(1)
	return n, err
}

// --- per-layer metrics ---

func meanDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

func us(ns float64) float64 { return ns / 1e3 }

// layerMetrics computes the per-layer metrics of the traced run, writes
// the spans out, and returns the metrics (the traced run's own publish
// and deliver medians among them, to set beside the untraced run's).
func (tc *tracedCluster) layerMetrics(r *run, e2e metricList, path string) metricList {
	in := tc.in
	sinkB := in.sinkBroker()
	A, S := tc.brokers[0], tc.brokers[sinkB]
	tc.mu.Lock()
	spans := append([]span(nil), tc.spans...)
	applies := append([]applyRec(nil), tc.applies...)
	tc.mu.Unlock()
	timedPubs := 0
	acked := map[string]time.Time{}
	for _, p := range r.pubs {
		if p.err == nil {
			timedPubs++
			acked[p.pubID] = p.acked
		}
	}

	// The brokers' own spans, by publication: publish at A, journal
	// append at every broker, match at C.
	type pubSpans struct {
		publish, journalA, matchS trace.Span
		journalEnd                map[int]time.Time
	}
	bp := map[string]*pubSpans{}
	for _, p := range r.pubs {
		if p.err != nil {
			continue
		}
		ps := &pubSpans{journalEnd: map[int]time.Time{}}
		for b, tb := range tc.brokers {
			for _, s := range tb.b.Tracer().Spans(p.pubID) {
				if s.Broker != tb.b.Tracer().Broker() {
					continue
				}
				end := s.Start.Add(time.Duration(s.Dur))
				switch {
				case s.Kind == trace.KindPublish && b == 0:
					ps.publish = s
				case s.Kind == trace.KindJournal:
					ps.journalEnd[b] = end
					if b == 0 {
						ps.journalA = s
					}
				case s.Kind == trace.KindMatch && b == sinkB:
					ps.matchS = s
				}
			}
		}
		bp[p.pubID] = ps
	}

	// Publish path at A: webapp.publish ⊃ broker.publish ⊃ {core.publish,
	// journal.append, fan-out}; self times are what children leave.
	var webSelf, brokerSelf, corePub, coreWait, jAppend, dispatch, webTotal, untimed []time.Duration
	corePubOf := map[int]span{}
	for i, s := range spans {
		if s.Name == "core.publish" && s.Parent >= 0 {
			corePubOf[s.Parent] = spans[i]
		}
	}
	semOf, matchOf := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "core.semantic":
			semOf[s.Parent] = s.dur()
		case "core.match":
			matchOf[s.Parent] = s.dur()
		}
	}
	for i, s := range spans {
		if s.Name == "core.publish" && s.Broker == sinkB {
			corePub = append(corePub, s.dur())
			coreWait = append(coreWait, s.dur()-semOf[i]-matchOf[i])
		}
	}
	for i, s := range spans {
		if s.Name != "webapp.publish" || s.Broker != 0 || s.Pub == "" {
			continue
		}
		ps := bp[s.Pub]
		if ps == nil || ps.publish.Dur == 0 {
			continue
		}
		bdur := time.Duration(ps.publish.Dur)
		bend := ps.publish.Start.Add(bdur)
		cp := corePubOf[i]
		jd := time.Duration(ps.journalA.Dur)
		fanStart := cp.End
		if jd > 0 {
			fanStart = ps.journalA.Start.Add(jd)
		}
		fan := bend.Sub(fanStart)
		if fan < 0 {
			fan = 0
		}
		webTotal = append(webTotal, s.dur())
		webSelf = append(webSelf, s.dur()-bdur)
		brokerSelf = append(brokerSelf, bdur-cp.dur()-jd-fan)
		jAppend = append(jAppend, jd)
		dispatch = append(dispatch, fan)
	}
	webByPub := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == "webapp.publish" && s.Broker == 0 {
			webByPub[s.Pub] = s.dur()
		}
	}
	// What the spans leave of the client's round trip: HTTP transport,
	// loopback and the generator.
	for _, p := range r.pubs {
		if w, ok := webByPub[p.pubID]; ok && p.err == nil {
			untimed = append(untimed, p.acked.Sub(p.sent)-w)
		}
	}

	// Notify: send time, queue wait from the broker's dispatch point
	// (end of its journal append) to the send, retries.
	var sendD, qWait []time.Duration
	attempts := map[pairKey]int{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "notify.send") {
			continue
		}
		sendD = append(sendD, s.dur())
		attempts[pairKey{s.Pub, s.Broker, s.Sub}]++
		// Durable sends are left out: a replay after a resume waited
		// for the resume, not in the queue.
		if ps := bp[s.Pub]; ps != nil && s.Seq == 0 {
			if je, ok := ps.journalEnd[s.Broker]; ok && !s.Start.Before(je) {
				qWait = append(qWait, s.Start.Sub(je))
			}
		}
	}
	retries := 0
	for _, n := range attempts {
		retries += n - 1
	}

	// Overlay hop: end of A's broker.publish to C's core.publish start.
	var hops []float64
	if in.brokers > 1 {
		for _, ps := range bp {
			if ps.publish.Dur == 0 || ps.matchS.Start.IsZero() {
				continue
			}
			hops = append(hops, ms(ps.matchS.Start.Sub(ps.publish.Start.Add(time.Duration(ps.publish.Dur)))))
		}
	}

	// Side operations.
	var webSub, coreSub, coreUnsub, detach, resume []time.Duration
	for _, s := range spans {
		switch s.Name {
		case "webapp.subscribe":
			webSub = append(webSub, s.dur())
		case "core.subscribe":
			coreSub = append(coreSub, s.dur())
		case "core.unsubscribe":
			coreUnsub = append(coreUnsub, s.dur())
		case "webapp.detach":
			detach = append(detach, s.dur())
		case "webapp.resume":
			resume = append(resume, s.dur())
		}
	}
	// Catch-up: from a resume request to the last notification of a
	// publication acked before it, sent to the resumed subscription.
	var catchup []float64
	for _, s := range spans {
		if s.Name != "webapp.resume" || s.Broker != sinkB {
			continue
		}
		end := s.End
		for _, x := range spans {
			if x.Name == "notify.send" && x.Broker == sinkB && x.Sub == s.Sub && x.Start.After(s.Start) &&
				acked[x.Pub].Before(s.Start) && x.End.After(end) {
				end = x.End
			}
		}
		catchup = append(catchup, ms(end.Sub(s.Start)))
	}

	var applyD []time.Duration
	var reidx, inval float64
	for _, a := range applies {
		if a.broker == sinkB {
			applyD = append(applyD, a.dur)
			reidx += float64(a.reindexed)
			inval += float64(a.invalidated)
		}
	}
	if n := float64(len(applyD)); n > 0 {
		reidx, inval = reidx/n, inval/n
	}

	// Engine counters over the timed phases at the matching broker.
	st := S.eng.Stats()
	b0 := S.base0
	events := float64(st.Events - b0.Events)
	ratio := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	js := A.jnl.Stats()
	appendsPerFsync := 0.0
	if js.GroupCommits > 0 {
		appendsPerFsync = float64(js.Appends) / float64(js.GroupCommits)
	}

	// Direct calls into the layers on a sample of the workload's
	// publications: parse, uncached expansion, match, allocations.
	var parseD, expandD, matchD []time.Duration
	var sample []message.Event
	for k := 0; k < 400; k++ {
		text := in.pub(k * 7).text
		t0 := time.Now()
		ev, err := sublang.ParseEvent(text)
		parseD = append(parseD, time.Since(t0))
		if err == nil {
			sample = append(sample, ev)
		}
	}
	stage := S.eng.Stage()
	for _, ev := range sample {
		t0 := time.Now()
		res := stage.ProcessEvent(ev)
		expandD = append(expandD, time.Since(t0))
		t1 := time.Now()
		S.eng.MatchEvents(res.Events)
		matchD = append(matchD, time.Since(t1))
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for _, ev := range sample {
		S.eng.Publish(ev)
	}
	runtime.ReadMemStats(&ms1)
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(len(sample))

	var out metricList
	add := func(name string, v float64, unit string) { out.add(name, v, unit, 0) }
	add("webapp.publish_us", us(meanDur(webSelf)), "us")
	add("sublang.parse_event_us", us(meanDur(parseD)), "us")
	add("webapp.subscribe_us", us(meanDur(webSub)), "us")
	add("core.subscribe_us", us(meanDur(coreSub)), "us")
	add("core.unsubscribe_us", us(meanDur(coreUnsub)), "us")
	add("semantic.expand_us", us(meanDur(expandD)), "us")
	add("semantic.derived_events_per_pub", float64(st.DerivedEvents-b0.DerivedEvents)/max1(events), "count")
	add("core.expansion_hit_ratio", ratio(st.ExpansionHits-b0.ExpansionHits, st.ExpansionMisses-b0.ExpansionMisses), "ratio")
	add("matching.match_us", us(meanDur(matchD)), "us")
	add("matching.matches_per_pub", float64(st.Matches-b0.Matches)/max1(events), "count")
	add("core.plan_cache_hit_ratio", ratio(st.PlanCacheHits, st.PlanCacheMisses), "ratio")
	add("core.publish_us", us(meanDur(corePub)), "us")
	add("core.publish_wait_us", us(meanDur(coreWait)), "us")
	add("core.allocs_per_pub", allocs, "count")
	add("knowledge.apply_ms", meanDur(applyD)/1e6, "ms")
	add("knowledge.reindexed_subs_per_delta", reidx, "count")
	add("core.expansion_invalidated_per_delta", inval, "count")
	add("journal.append_us", us(meanDur(jAppend)), "us")
	add("journal.appends_per_fsync", appendsPerFsync, "count")
	add("journal.bytes_per_pub", float64(js.Bytes)/max1(float64(js.Appends)), "B")
	add("broker.publish_self_us", us(meanDur(brokerSelf)), "us")
	add("notify.dispatch_us", us(meanDur(dispatch)), "us")
	add("notify.queue_wait_ms", meanDur(qWait)/1e6, "ms")
	add("notify.send_us", us(meanDur(sendD)), "us")
	add("notify.retries_per_1k", 1000*float64(retries)/max1(float64(len(attempts))), "count")
	add("overlay.hop_ms", median(hops), "ms")
	add("overlay.bytes_per_pub", float64(tc.ovBytes.Load())/max1(float64(timedPubs)), "B")
	add("overlay.writes_per_pub", float64(tc.ovWrites.Load())/max1(float64(timedPubs)), "count")
	add("broker.detach_us", us(meanDur(detach)), "us")
	add("broker.resume_ms", meanDur(resume)/1e6, "ms")
	add("journal.catchup_ms", median(catchup), "ms")
	add("http.untimed_us", us(meanDur(untimed)), "us")
	add("webapp.publish_total_us", us(meanDur(webTotal)), "us")
	for _, m := range e2e {
		switch m.name {
		case "publish_p50_ms", "deliver_p50_ms":
			add("traced."+m.name, m.value, m.unit)
		}
	}
	tc.writeSpans(path, spans)
	return out
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

func (tc *tracedCluster) writeSpans(path string, spans []span) {
	f, err := os.Create(path)
	if err != nil {
		logf("writing spans: %v", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, s := range spans {
		enc.Encode(s)
	}
}
