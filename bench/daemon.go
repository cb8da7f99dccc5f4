package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prefcover/internal/promtext"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// admin carries readiness probes and /metrics scrapes.
var admin = &http.Client{Timeout: requestTimeout}

// proc is one running prefcoverd process.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
}

// startProc runs bin on a free loopback port with -quiet plus args and
// waits until its /readyz answers 200.
func startProc(bin string, args ...string) (*proc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-quiet"}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before becoming ready", bin)
		default:
		}
		if resp, err := admin.Get(p.url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s not ready after 10s", bin)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, kills the process if it has not drained within 5s,
// and returns once it has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpuMs is the process's user+system CPU time in milliseconds.
func (p *proc) cpuMs() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	rest := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for pid %d", p.cmd.Process.Pid)
	}
	return float64(utime+stime) * 1000 / clockTicks, nil
}

// peakRSSMiB is the process's VmHWM in MiB.
func (p *proc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// deployment is one workload's processes: a single node, or two nodes
// behind a gateway (R=2, the gateway default).
type deployment struct {
	front *proc   // the process clients talk to
	nodes []*proc // the processes holding graphs: front itself unless gatewayed
}

func deploy(bin string, gateway bool) (*deployment, error) {
	if !gateway {
		p, err := startProc(bin)
		if err != nil {
			return nil, err
		}
		return &deployment{front: p, nodes: []*proc{p}}, nil
	}
	d := &deployment{}
	for i := 0; i < 2; i++ {
		p, err := startProc(bin)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, p)
	}
	gw, err := startProc(bin, "-gateway", "-nodes", d.nodes[0].url+","+d.nodes[1].url)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.front = gw
	return d, nil
}

// procs lists every process, the front first.
func (d *deployment) procs() []*proc {
	if d.front == nil || len(d.nodes) > 0 && d.front == d.nodes[0] {
		return d.nodes
	}
	return append([]*proc{d.front}, d.nodes...)
}

// stop stops the front first so no request is routed to a stopped node.
func (d *deployment) stop() {
	for _, p := range d.procs() {
		p.stop()
	}
}

func (d *deployment) cpuMs() (float64, error) {
	var sum float64
	for _, p := range d.procs() {
		ms, err := p.cpuMs()
		if err != nil {
			return 0, err
		}
		sum += ms
	}
	return sum, nil
}

func (d *deployment) peakRSSMiB() (float64, error) {
	var peak float64
	for _, p := range d.procs() {
		mb, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// scrapeNodes reads every node's /metrics; summed with sum, a gatewayed
// deployment reads like one node.
func (d *deployment) scrapeNodes(ctx context.Context) ([]*promtext.Metrics, error) {
	var out []*promtext.Metrics
	for _, p := range d.nodes {
		m, err := scrape(ctx, p.url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func scrape(ctx context.Context, url string) (*promtext.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := admin.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	return promtext.Parse(resp.Body)
}

// solverStrategy is the strategy label of a solver run the nodes
// recorded, or "" when none has run yet.
func (d *deployment) solverStrategy(ctx context.Context) (string, error) {
	ms, err := d.scrapeNodes(ctx)
	if err != nil {
		return "", err
	}
	for _, m := range ms {
		for _, s := range m.Samples("prefcover_solver_solves_total") {
			if st, ok := s.Labels.Get("strategy"); ok && s.Value > 0 {
				return st, nil
			}
		}
	}
	return "", nil
}
