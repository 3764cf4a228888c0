package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildLBD compiles cmd/lbd into <root>/.bench_build and returns the binary
// and how long the build took. Compilation is not part of setup_s.
func buildLBD(root string) (string, time.Duration, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "lbd")); err != nil {
		return "", 0, fmt.Errorf("no cmd/lbd under %s: %w", root, err)
	}
	bin := filepath.Join(root, ".bench_build", "lbd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/lbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/lbd: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// freeAddr picks a free loopback port by binding port 0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("pick a free port: %w", err)
	}
	return addr, nil
}

// tailBuffer keeps the last few KB written to it: the child's stderr,
// attached to a failure report.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one running lbd.
type child struct {
	cmd     *exec.Cmd
	addr    string
	spawned time.Time
	stderr  tailBuffer
	stdout  tailBuffer
	waited  chan struct{} // closed when cmd.Wait returned
	waitErr error

	listenAfter time.Duration // spawn → first /healthz answer
	readyAfter  time.Duration // spawn → lbd_delay_predicted_ready 1
}

// startLBD spawns lbd on a free loopback port and waits, with a deadline,
// until /healthz answers and the startup model solve has finished (so the
// solve does not compete with the measured phase for a core).
func startLBD(bin string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{addr: addr, waited: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = &c.stderr
	c.spawned = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lbd: %w", err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.waited)
	}()

	deadline := c.spawned.Add(20 * time.Second)
	poll := func(what string, ok func() bool) error {
		for !ok() {
			select {
			case <-c.waited:
				return fmt.Errorf("lbd exited while waiting for %s: %v\nstderr: %s", what, c.waitErr, c.stderr.String())
			default:
			}
			if time.Now().After(deadline) {
				c.kill()
				return fmt.Errorf("lbd: %s not within deadline\nstderr: %s", what, c.stderr.String())
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}
	if err := poll("/healthz", func() bool {
		body, err := httpGet(addr, "/healthz")
		return err == nil && strings.TrimSpace(string(body)) == "ok"
	}); err != nil {
		return nil, err
	}
	c.listenAfter = time.Since(c.spawned)
	if err := poll("the startup model solve", func() bool {
		m, err := c.scrape()
		return err == nil && m["lbd_delay_predicted_ready"] == 1
	}); err != nil {
		return nil, err
	}
	c.readyAfter = time.Since(c.spawned)
	return c, nil
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.waited
}

// drained is what lbd prints when its drain ends.
type drained struct {
	Completed, Dropped, Rejected, Abandoned int64
	Took                                    time.Duration
	MaxRSSMB                                float64
}

var drainLine = regexp.MustCompile(`lbd: drained: (\d+) completed, (\d+) dropped, (\d+) rejected, (\d+) abandoned`)

// stop sends SIGTERM, times the drain, and falls back to SIGKILL if lbd
// has not exited after its own 30 s drain budget plus a margin.
func (c *child) stop() (drained, error) {
	var d drained
	t0 := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d, fmt.Errorf("SIGTERM lbd: %w", err)
	}
	select {
	case <-c.waited:
	case <-time.After(35 * time.Second):
		c.kill()
		return d, fmt.Errorf("lbd did not exit 35s after SIGTERM; killed\nstderr: %s", c.stderr.String())
	}
	d.Took = time.Since(t0)
	if c.waitErr != nil {
		return d, fmt.Errorf("lbd exited with %v\nstderr: %s", c.waitErr, c.stderr.String())
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	m := drainLine.FindStringSubmatch(c.stdout.String())
	if m == nil {
		return d, fmt.Errorf("lbd printed no drain line\nstdout: %s", c.stdout.String())
	}
	for i, p := range []*int64{&d.Completed, &d.Dropped, &d.Rejected, &d.Abandoned} {
		*p, _ = strconv.ParseInt(m[i+1], 10, 64) // the regexp matched digits
	}
	return d, nil
}

// cpu reads the child's user+sys CPU so far from /proc (10 ms ticks).
func (c *child) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// scrape fetches and parses /metrics.
func (c *child) scrape() (map[string]float64, error) {
	body, err := httpGet(c.addr, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(bytes.NewReader(body))
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// parseMetrics reads Prometheus text exposition into name{labels} → value.
// Keys are spelled exactly as exposed, e.g.
// `lbd_jobs_total{outcome="completed"}`; comment lines are skipped.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, ' ')
		if end := strings.LastIndexByte(line, '}'); cut < end || cut < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// conn is a minimal HTTP/1.1 keep-alive client over one TCP connection.
// It exists so that a request can be cut into write, wait-for-first-byte
// and read-body spans, and so that the client's own CPU — which shares two
// cores with the server — stays small. It understands exactly what lbd
// sends for /work and /healthz: a status line, headers with a
// Content-Length, and a body.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 4096), buf: make([]byte, 0, 512)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// reqTimes are the instants that cut one request into spans.
type reqTimes struct {
	start, written, firstByte, done time.Time
}

var errNoLength = errors.New("response without Content-Length")

// do sends one prebuilt request and reads the response. The returned body
// aliases the connection's buffer and is valid until the next call.
func (c *conn) do(request []byte) (status int, body []byte, t reqTimes, err error) {
	if err = c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return
	}
	t.start = time.Now()
	if _, err = c.c.Write(request); err != nil {
		return
	}
	t.written = time.Now()
	if _, err = c.br.Peek(1); err != nil {
		return
	}
	t.firstByte = time.Now()
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		err = fmt.Errorf("short status line %q", line)
		return
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return
	}
	length := -1
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return
		}
		if len(line) <= 2 {
			break
		}
		const h = "content-length:"
		if len(line) > len(h) && strings.EqualFold(string(line[:len(h)]), h) {
			if length, err = strconv.Atoi(strings.TrimSpace(string(line[len(h):]))); err != nil {
				return
			}
		}
	}
	if length < 0 {
		err = errNoLength
		return
	}
	if cap(c.buf) < length {
		c.buf = make([]byte, length)
	}
	body = c.buf[:length]
	if _, err = io.ReadFull(c.br, body); err != nil {
		return
	}
	t.done = time.Now()
	return
}

func request(method, path, host string) []byte {
	return []byte(method + " " + path + " HTTP/1.1\r\nHost: " + host + "\r\nContent-Length: 0\r\n\r\n")
}

// workReply is the body of a 200 from POST /work.
type workReply struct {
	Server    int     `json:"server"`
	Work      float64 `json:"work"`
	ServiceMS float64 `json:"service_ms"`
	SojournMS float64 `json:"sojourn_ms"`
}
