package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves on disk and every child process it
// starts; close kills the children, waits for them and removes the files.
type sandbox struct {
	root    string // the checkout
	dir     string // scratch directory of this invocation
	daemonB string // path of the built knncostd

	mu       sync.Mutex
	children []*daemon
	seq      int
}

// findRoot checks that the working directory is the root of a checkout,
// which is where run.sh starts the benchmark.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if st, err := os.Stat(filepath.Join(wd, "cmd", "knncostd")); err != nil || !st.IsDir() {
		return "", fmt.Errorf("no cmd/knncostd in %s: run from the root of a checkout of the repository", wd)
	}
	return wd, nil
}

// newSandbox creates the scratch directory and builds the daemon, once per
// invocation; go build leaves an up-to-date .bench_build/bin/knncostd alone.
func newSandbox() (*sandbox, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	sb := &sandbox{root: root, dir: dir, daemonB: filepath.Join(build, "bin", "knncostd")}
	ctx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", sb.daemonB, "./cmd/knncostd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		sb.close()
		return nil, fmt.Errorf("building knncostd: %v\n%s", err, out)
	}
	return sb, nil
}

func (sb *sandbox) close() {
	sb.mu.Lock()
	children := sb.children
	sb.children = nil
	sb.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
	os.RemoveAll(sb.dir)
}

// daemon is one knncostd child process.
type daemon struct {
	sb      *sandbox
	args    []string
	cmd     *exec.Cmd
	addr    string // host:port parsed from the listening line
	logPath string
	exited  chan struct{}
	// spentNs is the CPU time of this daemon's earlier, killed incarnations.
	spentNs atomic.Int64
}

// start execs knncostd with args and waits for its "listening on" line,
// which carries the port the kernel picked.
func (sb *sandbox) start(args ...string) (*daemon, error) {
	sb.mu.Lock()
	sb.seq++
	logPath := filepath.Join(sb.dir, fmt.Sprintf("daemon-%d.log", sb.seq))
	sb.mu.Unlock()
	d := &daemon{sb: sb, args: args, logPath: logPath}
	if err := d.exec(); err != nil {
		return nil, err
	}
	sb.mu.Lock()
	sb.children = append(sb.children, d)
	sb.mu.Unlock()
	return d, nil
}

func (d *daemon) exec() error {
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return err
	}
	defer logFile.Close()
	cmd := exec.Command(d.sb.daemonB, d.args...)
	cmd.Stderr = logFile
	// Should the benchmark die without running its clean-up, the kernel
	// kills the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting knncostd: %w", err)
	}
	d.cmd = cmd
	d.exited = make(chan struct{})
	lines := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case lines <- addr:
				default:
				}
			}
		}
		cmd.Wait()
		if ps := cmd.ProcessState; ps != nil {
			d.spentNs.Add(int64(ps.UserTime() + ps.SystemTime()))
		}
	}()
	select {
	case addr := <-lines:
		d.addr = strings.TrimSpace(addr)
		return nil
	case <-d.exited:
		return fmt.Errorf("knncostd exited before listening:\n%s", d.logTail())
	case <-time.After(setupTimeout):
		d.kill()
		return fmt.Errorf("knncostd did not listen within %v:\n%s", setupTimeout, d.logTail())
	}
}

func (d *daemon) url() string { return "http://" + d.addr }

// kill sends SIGKILL and waits until the process has ended.
func (d *daemon) kill() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// restart kills the daemon and re-execs it with the same flags on the same
// port, then waits for /readyz; it returns the time from the exec to ready.
func (d *daemon) restart(hc *http.Client) (time.Duration, error) {
	d.kill()
	for i, a := range d.args {
		if a == "-addr" {
			d.args[i+1] = d.addr
		}
	}
	start := time.Now()
	if err := d.exec(); err != nil {
		return 0, err
	}
	if err := d.waitReady(hc); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(setupTimeout)
	for {
		resp, err := hc.Get(d.url() + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("knncostd exited before ready:\n%s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("knncostd not ready within %v:\n%s", setupTimeout, d.logTail())
		}
		time.Sleep(time.Millisecond) // poll pacing, not measured work
	}
}

// logTail returns the end of the daemon's stderr for failure reports.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return string(b)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds is the CPU time, user and system, this daemon has used in all
// its incarnations: the kernel's rusage for the killed ones, and for the
// live one the scheduler's per-thread run time, which is exact where the
// utime and stime of /proc/<pid>/stat are sampled at the clock tick.
func (d *daemon) cpuSeconds() (float64, error) {
	ns := d.spentNs.Load()
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := bytes.Fields(b)
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty", path)
		}
		run, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		ns += run
	}
	return float64(ns) / 1e9, nil
}

// rssOfPid reads VmRSS, in kB, from /proc/<pid>/status.
func rssOfPid(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(string(f[0]), 10, 64)
			}
		}
	}
	return 0, errors.New("no VmRSS line")
}

// mappingsOfPid counts the lines of /proc/<pid>/maps that map a file under
// dir.
func mappingsOfPid(pid int, dir string) (int, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/maps", pid))
	if err != nil {
		return 0, err
	}
	return bytes.Count(b, []byte(dir)), nil
}

// dirUsage walks dir and returns its regular files' count and total bytes.
func dirUsage(dir string) (files int, size int64, err error) {
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			files++
			size += info.Size()
		}
		return nil
	})
	return files, size, err
}
