package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	osexec "os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The server side of point-serve: an unmodified aqeserver child process,
// started from its binary with fixed flags and stopped by a graceful
// drain.

// children tracks the live server processes so every exit path,
// including the watchdog, can stop them.
var children struct {
	mu    sync.Mutex
	procs map[*serverProc]bool
}

func stopAllChildren() {
	children.mu.Lock()
	procs := make([]*serverProc, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// serverProc is one running aqeserver.
type serverProc struct {
	cmd       *osexec.Cmd
	stderr    *tailBuf
	drained   chan struct{} // closed once the child's stdout reaches EOF
	httpAddr  string
	binAddr   string
	stopOnce  sync.Once
	stopError error
}

// startServer starts aqeserver with args and waits for its READY line;
// the returned duration runs from process start to that line.
func startServer(bin string, args []string) (*serverProc, time.Duration, error) {
	p := &serverProc{cmd: osexec.Command(bin, args...), stderr: &tailBuf{max: 16 << 10},
		drained: make(chan struct{})}
	p.cmd.Stderr = p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = map[*serverProc]bool{}
	}
	children.procs[p] = true
	children.mu.Unlock()

	type ready struct {
		line string
		at   time.Time
	}
	readyc := make(chan ready, 1)
	go func() {
		defer close(p.drained)
		br := bufio.NewReader(stdout)
		sent := false
		for {
			line, err := br.ReadString('\n')
			if !sent && strings.HasPrefix(line, "READY ") {
				readyc <- ready{strings.TrimSpace(line), time.Now()}
				sent = true
			}
			if err != nil {
				if !sent {
					readyc <- ready{}
				}
				return
			}
		}
	}()
	select {
	case r := <-readyc:
		if r.line == "" {
			p.stop()
			return nil, 0, fmt.Errorf("aqeserver exited before READY: %s", p.stderr.String())
		}
		for _, f := range strings.Fields(r.line)[1:] {
			k, v, _ := strings.Cut(f, "=")
			switch k {
			case "http":
				p.httpAddr = v
			case "bin":
				p.binAddr = v
			}
		}
		return p, r.at.Sub(t0), nil
	case <-time.After(120 * time.Second):
		p.stop()
		return nil, 0, fmt.Errorf("aqeserver not READY after 120s: %s", p.stderr.String())
	}
}

// stop drains the server with SIGTERM (killing it if it does not exit in
// time) and waits for the process and its output to end.
func (p *serverProc) stop() error {
	p.stopOnce.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.drained:
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.drained
		}
		p.stopError = p.cmd.Wait()
		// A SIGTERM that lands before the server installs its handler
		// (it does so right after READY) ends it by the default action.
		var ee *osexec.ExitError
		if errors.As(p.stopError, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				p.stopError = nil
			}
		}
		children.mu.Lock()
		delete(children.procs, p)
		children.mu.Unlock()
	})
	return p.stopError
}

// tailBuf keeps the last max bytes written to it (the child's log).
type tailBuf struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append([]byte(nil), t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// spawnServers starts the server setupRepeats times, timing each start
// to READY, and keeps the last one running.
func spawnServers(bin string, args []string) (*serverProc, []float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		p, d, err := startServer(bin, args)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == setupRepeats-1 {
			return p, setups, nil
		}
		if err := p.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop aqeserver: %w (%s)", err, p.stderr.String())
		}
	}
	panic("unreachable")
}

// serverStats fetches the server's /stats document.
func serverStats(httpAddr string) (map[string]any, error) {
	resp, err := http.Get("http://" + httpAddr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return v, nil
}
