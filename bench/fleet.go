package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/persist"
	"repro/internal/service"
)

const (
	replicaCount = 3
	// fleetPort is the first of the fixed loopback ports the fleet listens
	// on. The gateway's hash ring is keyed by replica URL, so fixed ports
	// give every run the same key-to-replica assignment.
	fleetPort = 41000
)

// buildDaemons compiles dgxsimd and dgxsimgw from the tree under test.
func (e *runEnv) buildDaemons() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/dgxsimd", "./cmd/dgxsimgw")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build daemons: %w", err)
	}
	return nil
}

// replicaRequest is op i of the replicas mix: 70% Zipf reads over the
// warm read set, 20% never-seen simulates, 10% never-seen 8-cell sweeps.
func replicaRequest(in *inputs, i int) request {
	switch u := unit(in.seed, i, saltMix); {
	case u < 0.7:
		return simulateRequest(in, replicaZipf.rank(unit(in.seed, i, saltZipf)))
	case u < 0.9:
		return simulateRequest(in, replicaKeys+i)
	default:
		return sweepRequest(in, replicaKeys+i, i)
	}
}

// setupReplicas starts three replicas and the gateway, warms the read set
// through the gateway, then restarts the replicas on their snapshot
// directories so the measured phase starts from a booted-from-disk fleet.
func setupReplicas(seed int64, e *runEnv) (target, error) {
	s := newServiceTarget("replicas", seed)
	s.next = func(i int) request { return replicaRequest(s.in, i) }
	f, err := startFleet(e.bin)
	if err != nil {
		return nil, err
	}
	s.fleet, s.base = f, f.gwURL
	if err := s.warm(replicaKeys); err != nil {
		return nil, err
	}
	f.stopAll()
	if err := f.startAll(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// proc is one daemon process.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func startProc(path string, args ...string) (*proc, error) {
	cmd := exec.Command(path, args...)
	// Four daemons share the host's CPUs with the benchmark; one scheduler
	// thread each keeps idle Go schedulers from spinning against the rest.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	// Take the daemon down with the benchmark if it dies mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(path), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks for a graceful shutdown (dgxsimd flushes its snapshot queue)
// and waits for the process to exit.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// fleet is three dgxsimd replicas, each with its own snapshot directory,
// behind one dgxsimgw.
type fleet struct {
	bin      string
	dirs     []string
	urls     []string
	gwURL    string
	replicas []*proc
	gw       *proc
}

func startFleet(bin string) (*fleet, error) {
	ports, err := freePorts(replicaCount + 1)
	if err != nil {
		return nil, err
	}
	f := &fleet{bin: bin, gwURL: fmt.Sprintf("http://127.0.0.1:%d", ports[replicaCount])}
	for i := 0; i < replicaCount; i++ {
		dir, err := os.MkdirTemp("", "dgxsimd-snapshots-")
		if err != nil {
			f.close()
			return nil, err
		}
		f.dirs = append(f.dirs, dir)
		f.urls = append(f.urls, fmt.Sprintf("http://127.0.0.1:%d", ports[i]))
	}
	if err := f.startAll(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// freePorts returns n consecutive free loopback ports, preferring the
// fixed fleetPort block so the hash ring is the same on every run.
func freePorts(n int) ([]int, error) {
	for base := fleetPort; base < fleetPort+200; base += 10 {
		var ls []net.Listener
		for p := base; p < base+n; p++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				break
			}
			ls = append(ls, l)
		}
		for _, l := range ls {
			l.Close()
		}
		if len(ls) == n {
			ports := make([]int, n)
			for i := range ports {
				ports[i] = base + i
			}
			return ports, nil
		}
	}
	return nil, fmt.Errorf("no %d free loopback ports from %d", n, fleetPort)
}

// startAll boots the replicas, waits until they answer, then the gateway.
func (f *fleet) startAll() error {
	for i, u := range f.urls {
		p, err := startProc(filepath.Join(f.bin, "dgxsimd"), "-addr", strings.TrimPrefix(u, "http://"),
			"-workers", "1", "-queue-depth", "64", "-cache", "256", "-cache-dir", f.dirs[i], "-access-log=false")
		if err != nil {
			return err
		}
		f.replicas = append(f.replicas, p)
	}
	for i, u := range f.urls {
		if err := waitHealthy(u, f.replicas[i]); err != nil {
			return err
		}
	}
	gw, err := startProc(filepath.Join(f.bin, "dgxsimgw"), "-addr", strings.TrimPrefix(f.gwURL, "http://"),
		"-replicas", strings.Join(f.urls, ","))
	if err != nil {
		return err
	}
	f.gw = gw
	return waitHealthy(f.gwURL, gw)
}

func waitHealthy(base string, p *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up", base)
		default:
		}
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after 30s", base)
}

// stopAll stops the gateway, then the replicas, and waits for all.
func (f *fleet) stopAll() {
	if f.gw != nil {
		f.gw.stop()
		f.gw = nil
	}
	for _, p := range f.replicas {
		p.stop()
	}
	f.replicas = nil
}

func (f *fleet) close() {
	f.stopAll()
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

func (f *fleet) pids() []int {
	var out []int
	for _, p := range append([]*proc{f.gw}, f.replicas...) {
		if p != nil {
			out = append(out, p.cmd.Process.Pid)
		}
	}
	return out
}

// counters sums /metrics over the replicas and the gateway.
func (f *fleet) counters(c *http.Client) (map[string]float64, error) {
	total := map[string]float64{}
	for _, u := range append([]string{f.gwURL}, f.urls...) {
		if _, err := scrape(c, u+"/metrics", total); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// layers adds the gateway and persist metrics. It stops the fleet to
// time snapshot loading, so it runs last.
func (f *fleet) layers(m, before, after map[string]float64, ops float64, s *serviceTarget) error {
	var fwd []float64
	sum := 0.0
	for _, u := range f.urls {
		v := delta(before, after, fmt.Sprintf("dgxsimgw_replica_requests_total{replica=%q}", u))
		fwd = append(fwd, v)
		sum += v
	}
	m["gateway.replica_skew"] = sortedCopy(fwd)[len(fwd)-1] / max(sum/float64(len(fwd)), 1)
	m["gateway.failovers"] = delta(before, after, "dgxsimgw_failovers_total")
	m["persist.written_per_op"] = delta(before, after, "dgxsimd_persist_writes_total") / ops
	m["persist.dropped"] = delta(before, after, "dgxsimd_persist_dropped_total")
	m["persist.errors"] = delta(before, after, "dgxsimd_persist_write_errors_total")

	// Gateway overhead: the same hit, through the gateway and straight to
	// the replica the gateway named.
	var viaGW, direct []float64
	for round := 0; round < 4; round++ {
		for k := 0; k < checkKeys; k++ {
			req := simulateRequest(s.in, k)
			t0 := time.Now()
			resp, _, err := s.sendTo(f.gwURL, req, "")
			if err != nil {
				return err
			}
			viaGW = append(viaGW, time.Since(t0).Seconds())
			t0 = time.Now()
			if _, _, err := s.sendTo(resp.Header.Get("X-Gw-Replica"), req, ""); err != nil {
				return err
			}
			direct = append(direct, time.Since(t0).Seconds())
		}
	}
	m["gateway.overhead_us"] = 1e6 * (median(viaGW) - median(direct))

	f.stopAll()
	us, err := loadPerEntry(f.dirs)
	m["persist.load_us_per_entry"] = us
	return err
}

// loadPerEntry times persist's boot-time load of each snapshot directory.
func loadPerEntry(dirs []string) (float64, error) {
	var total time.Duration
	entries := 0
	for _, d := range dirs {
		st, err := persist.Open(d, service.SchemaVersion, 0)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = st.Load(func(string, []byte) { entries++ })
		total += time.Since(t0)
		st.Close()
		if err != nil {
			return 0, err
		}
	}
	return total.Seconds() * 1e6 / float64(max(entries, 1)), nil
}

// scrape reads a Prometheus text exposition into into (a fresh map when
// nil), adding each sample under its full series name and under its bare
// metric name, so labelled series also sum across labels and processes.
func scrape(c *http.Client, url string, into map[string]float64) (map[string]float64, error) {
	if into == nil {
		into = map[string]float64{}
	}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		into[series] += v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			into[series[:j]] += v
		}
	}
	return into, sc.Err()
}
