package main

import (
	"errors"
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

	"mdq/bench/workload"
)

// buildDir is where the benchmark keeps what it builds, relative to
// the checkout root (ignored by git).
const buildDir = ".bench_build"

// findRoot returns the checkout root: the working directory, which
// must hold the module and the server sources the benchmark builds.
func findRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, need := range []string{"go.mod", "cmd/mdqserve", "cmd/mdqworker"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return "", fmt.Errorf("run mdqperf from the repository root: %s is missing there", need)
		}
	}
	return root, nil
}

// binaries holds the paths of the built server programs.
type binaries struct{ serve, worker string }

// buildBinaries compiles mdqserve and mdqworker from the checkout's
// own sources; the go build cache makes every call after the first a
// staleness check.
func buildBinaries(root string) (binaries, error) {
	dir := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/mdqserve", "./cmd/mdqworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("building the servers: %v\n%s", err, out)
	}
	return binaries{serve: filepath.Join(dir, "mdqserve"), worker: filepath.Join(dir, "mdqworker")}, nil
}

// proc is one running server process.
type proc struct {
	role string // "coordinator" or "worker"
	addr string
	cmd  *exec.Cmd
	// done is closed once the process has been waited for; err holds
	// its exit status.
	done chan struct{}
	err  error
	log  *tailBuffer
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// tailBuffer keeps the last bytes a process printed, for the message
// of a run it invalidates.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// fleet is the set of server processes of one workload: a single
// mdqserve, or a coordinator with its workers.
type fleet struct {
	procs []*proc
	// base is the URL clients drive.
	base string
}

// coordinator returns the process clients talk to.
func (f *fleet) coordinator() *proc { return f.procs[len(f.procs)-1] }

// workers returns the mdqworker processes.
func (f *fleet) workers() []*proc { return f.procs[:len(f.procs)-1] }

// freeAddrs reserves n loopback ports by listening on them briefly.
// Another process can still take one before the server binds it; the
// server then exits and the run is invalidated with its message.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

func startProc(role, bin string, args ...string) (*proc, error) {
	p := &proc{role: role, cmd: exec.Command(bin, args...), done: make(chan struct{}), log: &tailBuffer{}}
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// startFleet launches the workload's processes with default flags —
// only -addr, -world and -workers are set — and waits until each
// answers on its readiness endpoint. On error everything already
// started is stopped.
func startFleet(bins binaries, spec workload.Spec) (_ *fleet, err error) {
	addrs, err := freeAddrs(spec.Workers + 1)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	var workerURLs []string
	for i := 0; i < spec.Workers; i++ {
		p, err := startProc("worker", bins.worker, "-addr", addrs[i], "-world", spec.World)
		if err != nil {
			return nil, err
		}
		p.addr = addrs[i]
		f.procs = append(f.procs, p)
		workerURLs = append(workerURLs, "http://"+addrs[i])
	}
	for _, p := range f.procs {
		if err := waitReady(p, "/dist/info"); err != nil {
			return nil, err
		}
	}
	args := []string{"-addr", addrs[spec.Workers], "-world", spec.World}
	if spec.Workers > 0 {
		args = append(args, "-workers", strings.Join(workerURLs, ","))
	}
	co, err := startProc("coordinator", bins.serve, args...)
	if err != nil {
		return nil, err
	}
	co.addr = addrs[spec.Workers]
	f.procs = append(f.procs, co)
	f.base = "http://" + co.addr
	if err := waitReady(co, "/metrics"); err != nil {
		return nil, err
	}
	return f, nil
}

// waitReady polls a process's endpoint until it answers 200, the
// process exits (a port clash ends it at once), or 10 s pass.
func waitReady(p *proc, path string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s on %s exited before it was ready (%v): %s", p.role, p.addr, p.err, p.log)
		}
		resp, err := client.Get("http://" + p.addr + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s on %s did not answer %s within 10 s: %s", p.role, p.addr, path, p.log)
}

// checkAlive reports the first process that has ended.
func (f *fleet) checkAlive() error {
	for _, p := range f.procs {
		if p.exited() {
			return fmt.Errorf("%s on %s exited during the run (%v): %s", p.role, p.addr, p.err, p.log)
		}
	}
	return nil
}

// stop ends every process — SIGTERM, then SIGKILL after 5 s — and
// returns once each has been waited for. It is safe to call twice.
func (f *fleet) stop() {
	for _, p := range f.procs {
		if !p.exited() {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// procUsage is what /proc says a process has used so far.
type procUsage struct {
	cpu     time.Duration // utime + stime
	peakRSS int64         // VmHWM, bytes
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// usage reads the process's CPU time and peak resident set.
func (p *proc) usage() (procUsage, error) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return procUsage{}, err
	}
	// The command name, field 2, may hold spaces; fields are counted
	// from the parenthesis that closes it.
	i := strings.LastIndexByte(string(stat), ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return procUsage{}, errors.New("unexpected /proc/<pid>/stat layout")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return procUsage{}, errors.New("unexpected /proc/<pid>/stat times")
	}
	u := procUsage{cpu: time.Duration(utime+stime) * clockTick}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return procUsage{}, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			u.peakRSS = kb << 10
		}
	}
	return u, nil
}
