package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cluster is the broker line under test: out-of-process stopss-server
// brokers for the measured runs, or the same stack hosted in this
// process for the traced run.
type cluster interface {
	// start brings up the brokers with fresh state; started reports when.
	start(in *inputs, sinks []string) (started time.Time, err error)
	http(i int) string // HTTP address of broker i
	// crash kills broker i without a clean shutdown; restart brings it
	// back with the same flags and state directories.
	crash(i int) error
	restart(i int) error
	// cpuTicks and rssMB read the brokers' OS accounting (0 in process).
	cpuTicks() int64
	rssMB() float64
	stop()
}

// freePort reserves an ephemeral loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// brokerFlags is the server command line of broker i of the line, using
// only the server's existing flags.
type brokerAddrs struct {
	http, overlay string
	dir           string
}

func brokerFlags(in *inputs, i int, a []brokerAddrs, ontPath string) []string {
	args := []string{
		"-addr", a[i].http,
		"-log-level", "warn",
		"-snapshot", filepath.Join(a[i].dir, "state.jsonl"),
		"-journal-dir", filepath.Join(a[i].dir, "journal"),
		"-journal-fsync=" + strconv.FormatBool(in.fsync),
		"-store-dir", filepath.Join(a[i].dir, "store"),
	}
	if ontPath != "" {
		args = append(args, "-ontology", ontPath)
	}
	if in.brokers > 1 {
		args = append(args, "-node", string(rune('A'+i)), "-overlay", a[i].overlay)
		if i > 0 {
			args = append(args, "-peer", a[i-1].overlay)
		}
	}
	return args
}

// procCluster runs stopss-server processes.
type procCluster struct {
	bin   string
	root  string // per-run temporary directory
	in    *inputs
	addrs []brokerAddrs
	ont   string
	procs []*exec.Cmd
}

func (c *procCluster) start(in *inputs, _ []string) (time.Time, error) {
	c.in = in
	c.addrs = make([]brokerAddrs, in.brokers)
	for i := range c.addrs {
		h, err := freePort()
		if err != nil {
			return time.Time{}, err
		}
		o, err := freePort()
		if err != nil {
			return time.Time{}, err
		}
		dir := filepath.Join(c.root, fmt.Sprintf("broker-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return time.Time{}, err
		}
		c.addrs[i] = brokerAddrs{http: h, overlay: o, dir: dir}
	}
	if in.ontology != "" {
		c.ont = filepath.Join(c.root, "catalog.odl")
		if err := os.WriteFile(c.ont, []byte(in.ontology), 0o644); err != nil {
			return time.Time{}, err
		}
	}
	c.procs = make([]*exec.Cmd, in.brokers)
	t0 := time.Now()
	for i := range c.addrs {
		if err := c.spawn(i); err != nil {
			return t0, err
		}
	}
	for i := range c.addrs {
		if err := waitReady(c.addrs[i].http, c.procs[i]); err != nil {
			return t0, err
		}
	}
	return t0, nil
}

func (c *procCluster) spawn(i int) error {
	cmd := exec.Command(c.bin, brokerFlags(c.in, i, c.addrs, c.ont)...)
	logf, err := os.OpenFile(filepath.Join(c.addrs[i].dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	logf.Close()
	c.procs[i] = cmd
	registerPid(cmd.Process.Pid)
	return nil
}

// waitReady polls the broker's stats endpoint until it answers.
func waitReady(addr string, cmd *exec.Cmd) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/api/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		if cmd != nil && cmd.ProcessState != nil {
			return fmt.Errorf("broker at %s exited", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("broker at %s not ready after 30s", addr)
}

func (c *procCluster) http(i int) string { return c.addrs[i].http }

func (c *procCluster) crash(i int) error {
	p := c.procs[i]
	if p == nil {
		return nil
	}
	p.Process.Signal(syscall.SIGKILL)
	p.Wait()
	unregisterPid(p.Process.Pid)
	c.procs[i] = nil
	return nil
}

func (c *procCluster) restart(i int) error {
	if err := c.spawn(i); err != nil {
		return err
	}
	return waitReady(c.addrs[i].http, c.procs[i])
}

func (c *procCluster) cpuTicks() int64 {
	var sum int64
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Process.Pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
		if len(f) > 12 {
			u, _ := strconv.ParseInt(f[11], 10, 64)
			st, _ := strconv.ParseInt(f[12], 10, 64)
			sum += u + st
		}
	}
	return sum
}

func (c *procCluster) rssMB() float64 {
	var kb float64
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.Process.Pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				v, _ := strconv.ParseFloat(f[1], 64)
				kb += v
			}
		}
	}
	return kb / 1024
}

func (c *procCluster) stop() {
	for i := range c.procs {
		c.crash(i)
	}
}

// --- process registry: every broker is killed on exit, even on failure ---

var (
	pidMu sync.Mutex
	pids  = map[int]bool{}
)

func registerPid(p int)   { pidMu.Lock(); pids[p] = true; pidMu.Unlock() }
func unregisterPid(p int) { pidMu.Lock(); delete(pids, p); pidMu.Unlock() }

func killAll() {
	pidMu.Lock()
	defer pidMu.Unlock()
	for p := range pids {
		syscall.Kill(-p, syscall.SIGKILL)
		syscall.Kill(p, syscall.SIGKILL)
		var ws syscall.WaitStatus
		syscall.Wait4(p, &ws, 0, nil)
		delete(pids, p)
	}
}

// --- notification sink: one TCP listener per broker ---

// delivery is one notification read at a sink.
type delivery struct {
	at    time.Time
	pub   string
	sub   uint64
	valid bool
}

type sink struct {
	ln   net.Listener
	mu   sync.Mutex
	got  []delivery
	cnt  map[string]int // deliveries per publication
	wait map[string]*pubWait
	conn map[net.Conn]bool
	wg   sync.WaitGroup
}

// pubWait lets a closed-loop publisher block until its deliveries at
// this sink reach the expected count.
type pubWait struct {
	want int
	done chan struct{}
}

func newSink(addr string) (*sink, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &sink{ln: ln, cnt: map[string]int{}, wait: map[string]*pubWait{}, conn: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *sink) addr() string { return s.ln.Addr().String() }

func (s *sink) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conn[c] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.read(c)
	}
}

func (s *sink) read(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		d := parseNotification(sc.Bytes())
		d.at = time.Now()
		s.mu.Lock()
		s.got = append(s.got, d)
		s.cnt[d.pub]++
		if w := s.wait[d.pub]; w != nil && s.cnt[d.pub] >= w.want {
			close(w.done)
			delete(s.wait, d.pub)
		}
		s.mu.Unlock()
	}
}

// parseNotification pulls pub_id and sub_id out of one notification
// line without decoding the event.
func parseNotification(b []byte) delivery {
	var d delivery
	if v, ok := jsonField(b, `"pub_id":"`); ok {
		d.pub = string(v[:bytes.IndexByte(v, '"')])
	}
	if v, ok := jsonField(b, `"sub_id":`); ok {
		d.sub, _ = strconv.ParseUint(string(leadingDigits(v)), 10, 64)
	}
	d.valid = d.pub != "" && d.sub != 0
	if !d.valid {
		// Fall back to a full decode for any unusual encoding.
		var n struct {
			Sub uint64 `json:"sub_id"`
			Pub string `json:"pub_id"`
		}
		if json.Unmarshal(b, &n) == nil {
			d.pub, d.sub = n.Pub, n.Sub
			d.valid = d.pub != "" && d.sub != 0
		}
	}
	return d
}

func jsonField(b []byte, key string) ([]byte, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, false
	}
	v := b[i+len(key):]
	if key[len(key)-1] == '"' && bytes.IndexByte(v, '"') < 0 {
		return nil, false
	}
	return v, true
}

func leadingDigits(b []byte) []byte {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return b[:n]
}

// expect registers a wait for want deliveries of pub at this sink and
// returns a channel closed when they have arrived.
func (s *sink) expect(pub string, want int) <-chan struct{} {
	ch := make(chan struct{})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cnt[pub] >= want {
		close(ch)
		return ch
	}
	s.wait[pub] = &pubWait{want: want, done: ch}
	return ch
}

func (s *sink) cancel(pub string) {
	s.mu.Lock()
	delete(s.wait, pub)
	s.mu.Unlock()
}

func (s *sink) deliveries() []delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]delivery(nil), s.got...)
}

func (s *sink) close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conn {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// --- HTTP client: one keep-alive connection per publisher ---

type client struct{ hc *http.Client }

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// post sends a JSON body and decodes the JSON reply into out (when non-nil).
func (c *client) post(addr, path string, body any, out any) error {
	var buf []byte
	switch b := body.(type) {
	case string:
		buf = []byte(b)
	default:
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	resp, err := c.hc.Post("http://"+addr+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func (c *client) get(addr, path string, out any) error {
	resp, err := c.hc.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s: %d", path, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}
