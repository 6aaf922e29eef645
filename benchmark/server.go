package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kiter/internal/engine"
)

// replica is one kiterd process.
type replica struct {
	addr string // host:port
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

func (r *replica) url() string { return "http://" + r.addr }

// fleet is the set of kiterd processes a workload runs against: one
// replica, or three clustered with the fleet cache tier and the default
// claim lease.
type fleet struct {
	replicas []*replica
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var addrs []string
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startFleet launches n kiterd replicas from bin with default flags (plus
// the cluster flags when n > 1). Each process is killed if the benchmark
// dies, so none outlives it.
func startFleet(bin string, n int) (*fleet, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for i, addr := range addrs {
		args := []string{"-addr", addr}
		if n > 1 {
			var peers []string
			for j, p := range addrs {
				if j != i {
					peers = append(peers, p)
				}
			}
			args = append(args, "-self", addr, "-peers", strings.Join(peers, ","), "-cache-fleet")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("starting kiterd: %w", err)
		}
		r := &replica{addr: addr, cmd: cmd, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a killed replica carries no news
			close(r.done)
		}()
		f.replicas = append(f.replicas, r)
	}
	return f, nil
}

// stop kills every replica and waits until each has exited.
func (f *fleet) stop() {
	for _, r := range f.replicas {
		_ = r.cmd.Process.Kill() // fails only when the process already exited
	}
	for _, r := range f.replicas {
		<-r.done
	}
}

// waitReady polls /healthz?ready=1 on every replica until all answer 200.
func (f *fleet) waitReady(client *http.Client, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for _, r := range f.replicas {
		for !r.ready(client) {
			select {
			case <-r.done:
				return fmt.Errorf("kiterd %s exited during start-up", r.addr)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("kiterd %s not ready after %v", r.addr, patience)
			}
			// Fine-grained: a single replica is ready in a few
			// milliseconds, and the poll interval bounds setup_s's
			// resolution.
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

func (r *replica) ready(client *http.Client) bool {
	resp, err := client.Get(r.url() + "/healthz?ready=1")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (f *fleet) urls() []string {
	var out []string
	for _, r := range f.replicas {
		out = append(out, r.url())
	}
	return out
}

// kiterd's CPU time and resident set are read from /proc, so the benchmark
// runs on Linux only. clockTicks is USER_HZ, the unit of /proc/<pid>/stat
// times.
const clockTicks = 100

// cpuTicks returns the fleet's utime+stime, summed over replicas.
func (f *fleet) cpuTicks() (int64, error) {
	var sum int64
	for _, r := range f.replicas {
		t, err := cpuTicks(r.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// stats reads every replica's /stats.
func (f *fleet) stats(ctx context.Context, client *http.Client) ([]engine.Stats, error) {
	var out []engine.Stats
	for _, r := range f.replicas {
		st, err := fetchStats(ctx, client, r.url())
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// cpuTicks returns a process's utime+stime from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(data[i+1:]))
	// fields[0] is the state (field 3); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// rssMB returns the fleet's resident set sizes (VmRSS), summed, in MiB.
func (f *fleet) rssMB() (float64, error) {
	var kb int64
	for _, r := range f.replicas {
		v, err := vmRSS(r.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

func vmRSS(pid int) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmRSS in /proc status")
}

func fetchStats(ctx context.Context, client *http.Client, url string) (engine.Stats, error) {
	var st engine.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s/stats: %s", url, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
