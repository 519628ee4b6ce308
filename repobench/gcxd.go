package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fleetServer is the system under test of gcxd-fleet: gcxd as its own
// process, or an in-process server in the benchmark's tests.
type fleetServer interface {
	url() string
	// reload installs a new registry file and returns how long the
	// server took to confirm it.
	reload(registry []byte) (time.Duration, error)
	stop() error
}

// launcher starts a server on a registry file's contents and returns it
// with its set-up time: from start to a 200 from /readyz.
type launcher func(registry []byte) (fleetServer, time.Duration, error)

// gcxdLauncher starts the gcxd binary named in the run's configuration.
func gcxdLauncher(cfg runConfig) launcher {
	return func(registry []byte) (fleetServer, time.Duration, error) {
		if cfg.gcxd == "" {
			return nil, 0, errors.New("gcxd-fleet needs -gcxd (run.sh builds it)")
		}
		path, err := filepath.Abs(filepath.Join(cfg.work, "fleet.xq"))
		if err != nil {
			return nil, 0, err
		}
		if err := os.WriteFile(path, registry, 0o644); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		cmd := exec.Command(cfg.gcxd, "-listen", "127.0.0.1:0", "-queries", path, "-pprof")
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
		log := newLineLog()
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("start gcxd: %w", err)
		}
		p := &gcxdProc{cmd: cmd, log: log, regPath: path, done: make(chan struct{})}
		go func() {
			p.waitErr = cmd.Wait()
			close(p.done)
		}()
		_, line, err := log.await(0, func(l string) bool { return strings.Contains(l, "listening on ") }, p.done, 60*time.Second)
		if err != nil {
			p.stop()
			return nil, 0, fmt.Errorf("gcxd did not start: %w", err)
		}
		addr := strings.TrimSpace(strings.SplitN(strings.SplitN(line, "listening on ", 2)[1], " ", 2)[0])
		p.base = "http://" + addr
		if err := awaitReady(p.base, 30*time.Second); err != nil {
			p.stop()
			return nil, 0, err
		}
		return p, time.Since(t0), nil
	}
}

func awaitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gcxd not ready after %v (last error %v)", timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// gcxdProc is a running gcxd. stop ends it and waits for it to exit.
type gcxdProc struct {
	cmd     *exec.Cmd
	log     *lineLog
	regPath string
	base    string
	done    chan struct{} // closed once the process has exited
	waitErr error         // valid after done is closed
}

func (p *gcxdProc) url() string { return p.base }

// reload rewrites the registry file and sends SIGHUP; gcxd confirms the
// reload, or its rejection, on its standard error.
func (p *gcxdProc) reload(registry []byte) (time.Duration, error) {
	tmp := p.regPath + ".tmp"
	if err := os.WriteFile(tmp, registry, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, p.regPath); err != nil {
		return 0, err
	}
	from := p.log.count()
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return 0, err
	}
	_, line, err := p.log.await(from, func(l string) bool {
		return strings.Contains(l, "registry reloaded") || strings.Contains(l, "reload failed")
	}, p.done, 60*time.Second)
	if err != nil {
		return 0, err
	}
	if strings.Contains(line, "reload failed") {
		return 0, errors.New(line)
	}
	return time.Since(t0), nil
}

// stop sends SIGTERM, which drains and exits, and kills gcxd if it has
// not exited within 15 s. It returns once the process has ended.
func (p *gcxdProc) stop() error {
	select {
	case <-p.done:
		return p.waitErr
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.cmd.Process.Kill()
	}
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return errors.New("gcxd did not stop within 15s; killed")
	}
	return p.waitErr
}

// lineLog collects a process's standard error by line and wakes waiters
// when lines arrive.
type lineLog struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	changed chan struct{}
}

func newLineLog() *lineLog { return &lineLog{changed: make(chan struct{}, 1)} }

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.partial = append(l.partial, p...)
	for {
		i := strings.IndexByte(string(l.partial), '\n')
		if i < 0 {
			break
		}
		l.lines = append(l.lines, string(l.partial[:i]))
		l.partial = l.partial[i+1:]
	}
	l.mu.Unlock()
	select {
	case l.changed <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (l *lineLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// await waits for the first line at or after index from that matches,
// failing if the process exits or the timeout passes first.
func (l *lineLog) await(from int, match func(string) bool, exited <-chan struct{}, timeout time.Duration) (int, string, error) {
	deadline := time.After(timeout)
	for {
		l.mu.Lock()
		for i := from; i < len(l.lines); i++ {
			if match(l.lines[i]) {
				line := l.lines[i]
				l.mu.Unlock()
				return i, line, nil
			}
		}
		tail := strings.Join(l.lines[max(0, len(l.lines)-5):], "\n")
		l.mu.Unlock()
		select {
		case <-l.changed:
		case <-exited:
			return 0, "", fmt.Errorf("process exited; last output:\n%s", tail)
		case <-deadline:
			return 0, "", fmt.Errorf("timed out after %v; last output:\n%s", timeout, tail)
		}
	}
}
