package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"obfuscade/internal/obs"
)

// buildObfuscade compiles ./cmd/obfuscade from the repository at root into
// dir. Build time is deliberately outside every measured phase.
func buildObfuscade(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "obfuscade")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/obfuscade")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building obfuscade: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one server child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	logs *tailBuffer
	done chan struct{} // closed once Wait has returned
}

// tailBuffer keeps the last few KiB a child wrote to its output, for error
// messages when it fails to start. wrote receives a token after each
// write: a server logs a line right after writing its address file, so
// start-up waits on it instead of polling the file.
type tailBuffer struct {
	mu    sync.Mutex
	buf   []byte
	wrote chan struct{}
}

func newTailBuffer() *tailBuffer { return &tailBuffer{wrote: make(chan struct{}, 1)} }

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	t.mu.Unlock()
	select {
	case t.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startProc launches `bin serve -addr addr args...` and waits until it has
// written its bound address to addrFile. The child gets SIGKILL if the
// harness dies first (Pdeathsig), so a killed harness leaves no servers
// behind.
func startProc(ctx context.Context, name, bin, addr, addrFile string, args ...string) (*proc, error) {
	os.Remove(addrFile)
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr, "-addr-file", addrFile}, args...)...)
	logs := newTailBuffer()
	cmd.Stdout = logs
	cmd.Stderr = logs
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logs: logs, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(15 * time.Second)
	// The file is also checked every 10 ms, in case a server stops
	// logging its address.
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.addr = strings.TrimSpace(string(b))
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during start-up: %s", name, logs)
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-logs.wrote:
		case <-poll.C:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not bind within 15s: %s", name, logs)
		}
	}
}

// stop sends SIGTERM, lets the server drain, and escalates to SIGKILL if it
// has not exited after 10 s. It returns once the process has been reaped.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// rssWindow is the length of the windows peak memory is sampled in.
const rssWindow = time.Second

// peakRSSWindows splits the time until stop is closed into windows of
// rssWindow and returns the summed peak resident memory of pids in each,
// in MB. A whole phase's peak depends on when collections happen to fall
// and moved by a tenth between runs; the median window peak repeats better.
func peakRSSWindows(pids []string, stop <-chan struct{}) ([]float64, error) {
	if err := resetPeakRSS(pids); err != nil {
		return nil, err
	}
	tick := time.NewTicker(rssWindow)
	defer tick.Stop()
	var out []float64
	for {
		var last bool
		select {
		case <-tick.C:
		case <-stop:
			last = true
		}
		mb, err := peakRSSMB(pids)
		if err != nil {
			return nil, err
		}
		out = append(out, mb)
		if last {
			return out, nil
		}
		if err := resetPeakRSS(pids); err != nil {
			return nil, err
		}
	}
}

// resetPeakRSS restarts each process's high-water mark from its current
// resident set. pids are /proc entries: a process ID or "self".
func resetPeakRSS(pids []string) error {
	for _, pid := range pids {
		if err := os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0); err != nil {
			return fmt.Errorf("resetting the peak RSS of %s: %w", pid, err)
		}
	}
	return nil
}

// peakRSSMB sums the high-water resident sets (VmHWM) of the processes, in
// MB.
func peakRSSMB(pids []string) (float64, error) {
	var sum float64
	for _, pid := range pids {
		mb, err := vmHWM("/proc/" + pid + "/status")
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// vmHWM parses the VmHWM line of a /proc/<pid>/status file, in MB.
func vmHWM(statusFile string) (float64, error) {
	f, err := os.Open(statusFile)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", statusFile, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusFile)
}

// shardConfig sizes one shard's caches.
type shardConfig struct {
	cacheBytes     int64
	cacheDiskBytes int64
}

// cluster is a router in front of two shards, each a child process with its
// own disk cache directory.
type cluster struct {
	router *proc
	shards []*proc
	url    string
}

const shardCount = 2

// startCluster starts the shards on the cache directories under dir, then
// the router, and returns once the router answers /healthz. A nil addrs
// binds the shards to free ports; a restart passes the previous shard
// addresses, because the ring places keys by shard address and a
// restarted cluster must find each key in the disk tier that stored it.
// On any error every process it started has been stopped.
func startCluster(ctx context.Context, bin, dir string, cfg shardConfig, addrs []string) (*cluster, error) {
	c := &cluster{}
	for i := range shardCount {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			c.stop()
			return nil, err
		}
		addr := "127.0.0.1:0"
		if addrs != nil {
			addr = addrs[i]
		}
		p, err := startProc(ctx, fmt.Sprintf("shard-%d", i), bin, addr, filepath.Join(sdir, "addr"),
			"-cache-dir", filepath.Join(sdir, "cache"),
			"-cache-bytes", strconv.FormatInt(cfg.cacheBytes, 10),
			"-cache-disk-bytes", strconv.FormatInt(cfg.cacheDiskBytes, 10),
			"-drain-timeout", "5s")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.shards = append(c.shards, p)
	}
	rt, err := startProc(ctx, "router", bin, "127.0.0.1:0", filepath.Join(dir, "router.addr"),
		"-route-to", strings.Join(c.shardAddrs(), ","), "-drain-timeout", "5s")
	if err != nil {
		c.stop()
		return nil, err
	}
	c.router = rt
	c.url = "http://" + rt.addr
	if err := waitHealthy(ctx, c.url); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func waitHealthy(ctx context.Context, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router at %s not healthy within 10s (last error %v)", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procs lists every process of the cluster, router first.
func (c *cluster) procs() []*proc {
	var out []*proc
	if c.router != nil {
		out = append(out, c.router)
	}
	return append(out, c.shards...)
}

// shardAddrs returns the shard addresses in ring-member order.
func (c *cluster) shardAddrs() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.addr
	}
	return out
}

// stop stops the router first (so no request is in flight towards a
// stopping shard), then the shards, and returns once all are reaped.
func (c *cluster) stop() {
	if c == nil {
		return
	}
	if c.router != nil {
		c.router.stop()
	}
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *proc) {
			defer wg.Done()
			s.stop()
		}(s)
	}
	wg.Wait()
}

// pids lists the /proc entries of router and shards.
func (c *cluster) pids() []string {
	var out []string
	for _, p := range c.procs() {
		out = append(out, strconv.Itoa(p.cmd.Process.Pid))
	}
	return out
}

var totalAllocRE = regexp.MustCompile(`# TotalAlloc = (\d+)`)

// totalAllocMB sums runtime.MemStats.TotalAlloc across router and shards,
// read from each process's pprof heap page.
func (c *cluster) totalAllocMB(ctx context.Context) (float64, error) {
	var sum float64
	for _, p := range c.procs() {
		body, err := getBody(ctx, "http://"+p.addr+"/debug/pprof/heap?debug=1")
		if err != nil {
			return 0, err
		}
		m := totalAllocRE.FindSubmatch(body)
		if m == nil {
			return 0, fmt.Errorf("%s: no TotalAlloc in heap profile", p.name)
		}
		n, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			return 0, err
		}
		sum += n / (1 << 20)
	}
	return sum, nil
}

// counters reads the shards' federated counters (through the router's
// /cluster/metrics.json) merged with the router's own.
func (c *cluster) counters(ctx context.Context) (map[string]int64, error) {
	var fed struct {
		Cluster obs.Snapshot      `json:"cluster"`
		Errors  map[string]string `json:"errors"`
	}
	if err := getJSON(ctx, c.url+"/cluster/metrics.json", &fed); err != nil {
		return nil, err
	}
	if len(fed.Errors) > 0 {
		return nil, fmt.Errorf("federated scrape missed shards: %v", fed.Errors)
	}
	var own obs.Snapshot
	if err := getJSON(ctx, c.url+"/metrics.json", &own); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range []obs.Snapshot{fed.Cluster, own} {
		for _, m := range s.Counters {
			out[m.Name] += m.Value
		}
	}
	return out, nil
}

func getBody(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

func getJSON(ctx context.Context, url string, v any) error {
	body, err := getBody(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// restartTimes starts the cluster n times on the same directories and shard
// addresses (free ports when addrs is nil) and returns the start-up
// duration of each start; the last cluster is left running and returned.
// Repeating the start lets setup_s report a median.
func restartTimes(ctx context.Context, bin, dir string, cfg shardConfig, addrs []string, n int) (*cluster, []float64, error) {
	var times []float64
	for i := range n {
		// Neither the harness's own collector nor writeback of files earlier
		// runs left dirty is part of the start-up, which opens and syncs the
		// shards' disk tiers.
		runtime.GC()
		syscall.Sync()
		t0 := time.Now()
		c, err := startCluster(ctx, bin, dir, cfg, addrs)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return c, times, nil
		}
		addrs = c.shardAddrs()
		c.stop()
	}
	return nil, nil, errors.New("restartTimes: n must be positive")
}
