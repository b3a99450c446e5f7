package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ref names one subscription the benchmark made.
type ref struct {
	kind byte // 'b' base, 'c' churn step, 's' sentinel, 'r' recovery
	idx  int
}

// pubRec is one publication as the generator saw it.
type pubRec struct {
	i       int // publication index: the pool entry is in.pub(i)
	phase   int // phaseOpen or phaseCap
	sched   time.Time
	sent    time.Time
	acked   time.Time
	pubID   string
	matches []uint64
	dropped int
	err     error
}

const (
	phaseOpen = iota
	phaseCap
)

// churnRec is one churn step: a subscribe, and later its unsubscribe.
type churnRec struct {
	j                    int
	id                   uint64
	subSent, subAcked    time.Time
	unsubSent, unsubAckd time.Time
	unsubscribed         bool
}

// cycleRec is one detach/resume cycle of a durable subscription.
type cycleRec struct {
	base                  int
	detachSent, detachAck time.Time
	resumeSent, resumeAck time.Time
	resumed               bool
}

// deltaRec is one knowledge delta: sent to A, and converged once every
// broker of the line has applied it.
type deltaRec struct {
	sent, converged time.Time
	err             error
}

// opCount tallies one kind of operation.
type opCount struct{ attempted, failed int }

// run is one measured run of one workload against one cluster.
type run struct {
	in      *inputs
	cl      cluster
	sinks   []*sink
	pubc    [2]*client
	aux     *client
	baseIDs []uint64 // broker subscription ID of each base subscription
	recIDs  []uint64
	byID    []map[uint64]ref // per broker

	mu        sync.Mutex
	pubs      []*pubRec
	churn     []*churnRec
	cycles    []*cycleRec
	deltaRecs []*deltaRec
	ops       map[string]*opCount
	subLat    []float64 // ms, subscribe and unsubscribe acks beside publications
	errs      []string

	// refMemo caches the reference's base-population matches per (pool
	// entry, knowledge version); version -1 is syntactic matching.
	refMemo map[[2]int][]int
}

func newRun(in *inputs, cl cluster) *run {
	r := &run{in: in, cl: cl, ops: map[string]*opCount{}, refMemo: map[[2]int][]int{}}
	r.pubc[0], r.pubc[1], r.aux = newClient(), newClient(), newClient()
	return r
}

func (r *run) count(kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(r.errs) < 20 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", kind, err))
		}
	}
}

func (r *run) close() {
	for _, c := range append(r.pubc[:], r.aux) {
		c.close()
	}
	for _, s := range r.sinks {
		s.close()
	}
	r.cl.stop()
}

type subscribeResp struct {
	ID uint64 `json:"id"`
}

// setup starts the brokers, registers every client with a TCP route to
// its broker's sink, and subscribes the initial population over both
// publisher connections. It returns seconds from broker start until the
// last initial subscription was acknowledged.
func (r *run) setup() (float64, error) {
	in := r.in
	r.sinks = make([]*sink, in.brokers)
	addrs := make([]string, in.brokers)
	for b := range r.sinks {
		s, err := newSink("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		r.sinks[b], addrs[b] = s, s.addr()
	}
	r.byID = make([]map[uint64]ref, in.brokers)
	for b := range r.byID {
		r.byID[b] = map[uint64]ref{}
	}
	t0, err := r.cl.start(in, addrs)
	if err != nil {
		return 0, err
	}
	r.baseIDs = make([]uint64, len(in.base))
	// Every client first, then every subscription, each split over both
	// publisher connections.
	var clients []subIn
	seen := map[string]bool{}
	for _, s := range in.base {
		key := fmt.Sprintf("%d/%s", s.broker, s.client)
		if !seen[key] {
			seen[key] = true
			clients = append(clients, s)
		}
	}
	err = r.both(len(clients), func(c *client, i int) error {
		s := clients[i]
		return c.post(r.cl.http(s.broker), "/api/v1/register", map[string]string{
			"name": s.client, "transport": "tcp", "addr": addrs[s.broker]}, nil)
	})
	if err == nil {
		err = r.both(len(in.base), func(c *client, i int) error {
			s := in.base[i]
			var resp subscribeResp
			if err := c.post(r.cl.http(s.broker), "/api/v1/subscribe", map[string]any{
				"client": s.client, "subscription": s.text, "durable": s.durable}, &resp); err != nil {
				return fmt.Errorf("subscribing %q: %w", s.text, err)
			}
			r.baseIDs[i] = resp.ID
			return nil
		})
	}
	if err != nil {
		return 0, err
	}
	last := time.Now()
	setupS := last.Sub(t0).Seconds()
	for i, s := range in.base {
		r.byID[s.broker][r.baseIDs[i]] = ref{kind: 'b', idx: i}
	}
	// Outside the timed set-up: the churn and recovery clients, then a
	// sentinel per broker that proves the overlay routed everything.
	for b := 0; b < in.brokers; b++ {
		if err := r.aux.post(r.cl.http(b), "/api/v1/register", map[string]string{
			"name": "churn", "transport": "tcp", "addr": addrs[b]}, nil); err != nil {
			return 0, err
		}
	}
	for i, s := range in.recoverySubs {
		if err := r.aux.post(r.cl.http(s.broker), "/api/v1/register", map[string]string{
			"name": s.client, "transport": "tcp", "addr": addrs[s.broker]}, nil); err != nil {
			return 0, err
		}
		var resp subscribeResp
		if err := r.aux.post(r.cl.http(s.broker), "/api/v1/subscribe", map[string]any{
			"client": s.client, "subscription": s.text, "durable": true}, &resp); err != nil {
			return 0, err
		}
		r.recIDs = append(r.recIDs, resp.ID)
		r.byID[s.broker][resp.ID] = ref{kind: 'r', idx: i}
	}
	if err := r.sentinels(addrs); err != nil {
		return 0, err
	}
	return setupS, nil
}

// both runs f(c, i) for i in [0, n), the even i on one publisher
// connection and the odd i on the other, and returns the first error.
func (r *run) both(n int, f func(c *client, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += 2 {
				errs[w] = f(r.pubc[w], i)
			}
		}(w)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// sentinels subscribes one probe per broker after everything else and
// publishes the probe at A until every sink has seen it: links are FIFO,
// so every earlier subscription has then been routed too.
func (r *run) sentinels(addrs []string) error {
	in := r.in
	for b, s := range in.sentinel {
		if err := r.aux.post(r.cl.http(b), "/api/v1/register", map[string]string{
			"name": s.client, "transport": "tcp", "addr": addrs[b]}, nil); err != nil {
			return err
		}
		var resp subscribeResp
		if err := r.aux.post(r.cl.http(b), "/api/v1/subscribe", map[string]any{
			"client": s.client, "subscription": s.text}, &resp); err != nil {
			return err
		}
		r.byID[b][resp.ID] = ref{kind: 's', idx: b}
	}
	deadline := time.Now().Add(20 * time.Second)
	for b := range in.sentinel {
		ev := fmt.Sprintf(`("perfbench sentinel", %d)`, b)
		for {
			var resp struct {
				PubID string `json:"pub_id"`
			}
			if err := r.aux.post(r.cl.http(0), "/api/v1/publish", map[string]string{"event": ev}, &resp); err != nil {
				return err
			}
			select {
			case <-r.sinks[b].expect(resp.PubID, 1):
			case <-time.After(100 * time.Millisecond):
				r.sinks[b].cancel(resp.PubID)
				if time.Now().After(deadline) {
					return fmt.Errorf("overlay did not route broker %d's subscriptions within 20s", b)
				}
				continue
			}
			break
		}
	}
	return nil
}

// --- the timed phases ---

// itemKind enumerates the operations the dispatcher hands out.
type itemKind int

const (
	itPub itemKind = iota
	itSub
	itUnsub
	itDelta
	itDetach
	itResume
)

type item struct {
	kind itemKind
	i    int // publication index, churn step, delta index or cycle index
}

// dispatcher hands out the run's operations in one fixed order, shared by
// both publishers. Side operations run beside the publications, as they
// would from other clients; the check bounds which of them each
// publication can have met from the operations' times.
type dispatcher struct {
	r        *run
	mu       sync.Mutex
	next     int // next publication index
	pending  []item
	phase    int
	openEnd  int // open-loop publications end before this index
	cycles   bool
	deadline time.Time
	churnJ   int
	deltaK   int
}

// take returns the next operation; ok is false when the phase is over.
func (d *dispatcher) take() (it item, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pending) == 0 {
		if d.phase == phaseOpen && d.next >= d.openEnd {
			return item{}, false
		}
		if d.phase == phaseCap && time.Now().After(d.deadline) {
			return item{}, false
		}
		d.plan()
	}
	it = d.pending[0]
	d.pending = d.pending[1:]
	return it, true
}

// plan queues the side operations scheduled before publication d.next,
// then the publication itself.
func (d *dispatcher) plan() {
	in := d.r.in
	i := d.next
	if i > 0 && i%in.kbEvery == 0 && d.deltaK < len(in.deltas) {
		d.pending = append(d.pending, item{itDelta, d.deltaK})
		d.deltaK++
	}
	if i%in.churnEvery == 0 {
		j := d.churnJ
		d.churnJ++
		d.pending = append(d.pending, item{itSub, j})
		if j >= in.churnLive {
			d.pending = append(d.pending, item{itUnsub, j - in.churnLive})
		}
	}
	if d.cycles {
		switch i % in.cycleEvery {
		case 0:
			d.pending = append(d.pending, item{itDetach, i / in.cycleEvery})
		case in.cycleEvery / 2:
			d.pending = append(d.pending, item{itResume, i / in.cycleEvery})
		}
	}
	d.pending = append(d.pending, item{itPub, i})
	d.next++
}

type publishResp struct {
	Matches []uint64 `json:"matches"`
	Dropped int      `json:"dropped"`
	PubID   string   `json:"pub_id"`
}

// exec runs one side operation (publications are run by the phases).
func (r *run) exec(c *client, it item) {
	in := r.in
	sb := in.sinkBroker()
	switch it.kind {
	case itSub:
		s := in.churn[it.i%len(in.churn)]
		rec := &churnRec{j: it.i}
		r.mu.Lock()
		for len(r.churn) <= it.i {
			r.churn = append(r.churn, nil)
		}
		r.churn[it.i] = rec
		r.mu.Unlock()
		var resp subscribeResp
		rec.subSent = time.Now()
		err := c.post(r.cl.http(sb), "/api/v1/subscribe", map[string]any{"client": "churn", "subscription": s.text}, &resp)
		rec.subAcked = time.Now()
		r.count("subscribe", err)
		r.mu.Lock()
		rec.id = resp.ID
		if err == nil {
			r.byID[sb][resp.ID] = ref{kind: 'c', idx: it.i}
			r.subLat = append(r.subLat, ms(rec.subAcked.Sub(rec.subSent)))
		}
		r.mu.Unlock()
	case itUnsub:
		r.mu.Lock()
		rec := r.churn[it.i]
		r.mu.Unlock()
		rec.unsubSent = time.Now()
		err := c.post(r.cl.http(sb), "/api/v1/unsubscribe", map[string]any{"client": "churn", "id": rec.id}, nil)
		rec.unsubAckd = time.Now()
		r.count("unsubscribe", err)
		r.mu.Lock()
		rec.unsubscribed = err == nil
		if err == nil {
			r.subLat = append(r.subLat, ms(rec.unsubAckd.Sub(rec.unsubSent)))
		}
		r.mu.Unlock()
	case itDelta:
		rec := &deltaRec{sent: time.Now()}
		r.mu.Lock()
		r.deltaRecs = append(r.deltaRecs, rec)
		r.mu.Unlock()
		err := c.post(r.cl.http(0), "/api/v1/kb", in.deltas[it.i].line, nil)
		if err == nil && in.brokers > 1 {
			err = r.awaitKB(it.i + 1)
		}
		r.count("kb_delta", err)
		r.mu.Lock()
		rec.converged, rec.err = time.Now(), err
		r.mu.Unlock()
	case itDetach, itResume:
		cyc := r.cycleSubs()
		bi := cyc[it.i%len(cyc)]
		s := in.base[bi]
		body := map[string]any{"client": s.client, "id": r.baseIDs[bi]}
		if it.kind == itDetach {
			rec := &cycleRec{base: bi}
			rec.detachSent = time.Now()
			err := c.post(r.cl.http(sb), "/api/v1/detach", body, nil)
			rec.detachAck = time.Now()
			r.count("detach", err)
			r.mu.Lock()
			for len(r.cycles) <= it.i {
				r.cycles = append(r.cycles, nil)
			}
			r.cycles[it.i] = rec
			r.mu.Unlock()
			return
		}
		r.mu.Lock()
		rec := r.cycles[it.i]
		r.mu.Unlock()
		rec.resumeSent = time.Now()
		err := c.post(r.cl.http(sb), "/api/v1/resume", body, nil)
		rec.resumeAck = time.Now()
		r.count("resume", err)
		rec.resumed = err == nil
	}
}

func (r *run) cycleSubs() []int {
	var out []int
	for i, s := range r.in.base {
		if s.cycle {
			out = append(out, i)
		}
	}
	return out
}

// awaitKB waits until every broker of the line has applied n deltas, so
// no publication meets a half-replicated knowledge base.
func (r *run) awaitKB(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for b := 1; b < r.in.brokers; b++ {
		for {
			var kb struct {
				Version struct {
					Deltas int `json:"deltas"`
				} `json:"version"`
			}
			if err := r.aux.get(r.cl.http(b), "/api/v1/kb", &kb); err != nil {
				return err
			}
			if kb.Version.Deltas >= n {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("broker %d has %d of %d deltas after 10s", b, kb.Version.Deltas, n)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// publish sends publication i and records the ack.
func (r *run) publish(c *client, rec *pubRec) {
	var resp publishResp
	rec.sent = time.Now()
	err := c.post(r.cl.http(0), "/api/v1/publish", map[string]string{"event": r.in.pub(rec.i).text}, &resp)
	rec.acked = time.Now()
	rec.err = err
	rec.pubID, rec.matches, rec.dropped = resp.PubID, resp.Matches, resp.Dropped
	if err == nil && resp.Dropped > 0 {
		err = fmt.Errorf("%d notifications dropped", resp.Dropped)
	}
	r.count("publish", err)
	r.mu.Lock()
	r.pubs = append(r.pubs, rec)
	r.mu.Unlock()
}

// openLoop publishes n publications at the workload's fixed rate; each
// is due at start + k/rate whatever happened to the ones before it.
func (r *run) openLoop(d *dispatcher, n int) {
	d.phase, d.openEnd, d.cycles = phaseOpen, d.next+n, true
	first := d.next
	start := time.Now().Add(20 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / r.in.openRate)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				it, ok := d.take()
				if !ok {
					return
				}
				if it.kind != itPub {
					r.exec(c, it)
					continue
				}
				rec := &pubRec{i: it.i, phase: phaseOpen, sched: start.Add(time.Duration(it.i-first) * interval)}
				if wait := time.Until(rec.sched); wait > 0 {
					time.Sleep(wait)
				}
				r.publish(c, rec)
			}
		}(r.pubc[w])
	}
	wg.Wait()
}

// capacityLoop runs both publishers closed-loop until the deadline: each
// sends its next publication only after the previous one was acked and
// every notification it matched reached its sink. It returns how many
// publications completed and how long the phase took, up to the last
// completion.
func (r *run) capacityLoop(d *dispatcher, dur time.Duration) (done int, elapsed time.Duration) {
	start := time.Now()
	d.phase, d.cycles, d.deadline = phaseCap, false, start.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				it, ok := d.take()
				if !ok {
					return
				}
				if it.kind != itPub {
					r.exec(c, it)
					continue
				}
				rec := &pubRec{i: it.i, phase: phaseCap}
				rec.sched = time.Now()
				r.publish(c, rec)
				if rec.err == nil {
					r.awaitDeliveries(rec)
				}
				mu.Lock()
				done++
				mu.Unlock()
			}
		}(r.pubc[w])
	}
	wg.Wait()
	return done, time.Since(start)
}

// awaitDeliveries blocks until the publication's notifications reached
// the sinks: the ack's own matches at the publishing broker, and the
// reference's base-population matches at every other broker.
func (r *run) awaitDeliveries(rec *pubRec) {
	want := make([]int, r.in.brokers)
	// A churn subscription in the ack may be unsubscribed before its
	// notification is dispatched, so only the others are awaited.
	r.mu.Lock()
	for _, id := range rec.matches {
		if r.byID[0][id].kind != 'c' {
			want[0]++
		}
	}
	r.mu.Unlock()
	want[0] -= rec.dropped
	if r.in.brokers > 1 {
		lo, _ := r.versions(rec)
		for _, bi := range r.refBase(rec.i, lo) {
			want[r.in.base[bi].broker]++
		}
	}
	for b, n := range want {
		if n == 0 {
			continue
		}
		select {
		case <-r.sinks[b].expect(rec.pubID, n):
		case <-time.After(10 * time.Second):
			r.sinks[b].cancel(rec.pubID)
		}
	}
}

// refBase is the reference's matches among the base population for
// publication i under knowledge version kbv (memoized per pool entry).
func (r *run) refBase(i, kbv int) []int {
	key := [2]int{int(r.in.order[i%len(r.in.order)]), kbv}
	r.mu.Lock()
	m, ok := r.refMemo[key]
	r.mu.Unlock()
	if ok {
		return m
	}
	kb := r.in.kbAt(kbv)
	m = r.in.matchBase(kb, r.in.baseIndex(kbv), kb.close(r.in.pub(i).ref))
	r.mu.Lock()
	r.refMemo[key] = m
	r.mu.Unlock()
	return m
}

// drain waits for the deliveries still in flight after the last phase:
// until the sinks hold at least want notifications and then stay quiet
// for a moment, or 15 seconds pass.
func (r *run) drain(want int) {
	deadline := time.Now().Add(15 * time.Second)
	quiet, last := time.Time{}, -1
	for time.Now().Before(deadline) {
		n := 0
		for _, s := range r.sinks {
			s.mu.Lock()
			n += len(s.got)
			s.mu.Unlock()
		}
		if n != last {
			last, quiet = n, time.Now()
		}
		if n >= want && time.Since(quiet) > 150*time.Millisecond {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedPubs(p []*pubRec) []*pubRec {
	out := append([]*pubRec(nil), p...)
	sort.Slice(out, func(a, b int) bool { return out[a].i < out[b].i })
	return out
}
