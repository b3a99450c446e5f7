package main

import (
	"fmt"
	"time"
)

// recovery is the fixed-input crash round of federated-durable, run after
// the timed phases: C's sink goes away so that matches park in C's
// journal, C is killed with SIGKILL and restarted with the same flags,
// and every durable recovery subscription is resumed. Each resume that
// fails and each parked notification that never arrives counts as a
// failed operation.
type recoveryResult struct {
	resumes, resumesFailed int
	parked, parkedLost     int
}

func (r *run) recovery() (recoveryResult, error) {
	in := r.in
	var res recoveryResult
	c := in.sinkBroker()
	addr := r.sinks[c].addr()
	r.sinks[c].close()
	var pubIDs []string
	for _, p := range in.recoveryPubs {
		var resp publishResp
		err := r.aux.post(r.cl.http(0), "/api/v1/publish", map[string]string{"event": p.text}, &resp)
		if err != nil {
			return res, fmt.Errorf("recovery publish: %w", err)
		}
		pubIDs = append(pubIDs, resp.PubID)
	}
	// Give C time to receive, journal and fail to deliver every match.
	time.Sleep(400 * time.Millisecond)
	if err := r.cl.crash(c); err != nil {
		return res, err
	}
	s, err := newSink(addr)
	if err != nil {
		return res, fmt.Errorf("reopening sink %s: %w", addr, err)
	}
	defer s.close()
	if err := r.cl.restart(c); err != nil {
		return res, err
	}
	for i, sub := range in.recoverySubs {
		res.resumes++
		err := r.aux.post(r.cl.http(c), "/api/v1/resume", map[string]any{"client": sub.client, "id": r.recIDs[i]}, nil)
		if err != nil {
			res.resumesFailed++
		}
	}
	time.Sleep(400 * time.Millisecond)
	got := map[pairKey]bool{}
	for _, d := range s.deliveries() {
		got[pairKey{d.pub, c, d.sub}] = true
	}
	for _, pid := range pubIDs {
		for _, id := range r.recIDs {
			res.parked++
			if !got[pairKey{pid, c, id}] {
				res.parkedLost++
			}
		}
	}
	return res, nil
}
