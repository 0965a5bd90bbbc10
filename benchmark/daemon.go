package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every live child daemon so each exit path — normal return,
// a failed pass, a panic, Ctrl-C — can kill and reap what is still running.
type children struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

func (c *children) add(d *daemon) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == nil {
		c.live = map[*daemon]struct{}{}
	}
	c.live[d] = struct{}{}
}

func (c *children) remove(d *daemon) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.live, d)
}

// killAll kills and reaps every daemon still running.
func (c *children) killAll() {
	c.mu.Lock()
	ds := make([]*daemon, 0, len(c.live))
	for d := range c.live {
		ds = append(ds, d)
	}
	c.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// buildDaemon compiles cmd/dsgserve into a fresh temp dir and returns the
// binary's path plus the cleanup that removes the dir. Build time is outside
// every reported metric.
func buildDaemon() (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "dsgbench-")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin = filepath.Join(dir, "dsgserve")
	cmd := exec.Command("go", "build", "-o", bin, "lsasg/cmd/dsgserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("building lsasg/cmd/dsgserve: %v\n%s", err, out)
	}
	return bin, cleanup, nil
}

// daemon is one child dsgserve process.
type daemon struct {
	owner *children
	cmd   *exec.Cmd
	addr  string // the wire address parsed from the "serving ... on" line
	pid   int

	logMu sync.Mutex
	log   []string      // every stderr line
	exit  chan struct{} // closed once the process has been reaped
	err   error         // cmd.Wait's result, valid after exit closes
}

// startDaemon spawns dsgserve on an ephemeral loopback port and waits for the
// log line that names it.
func (c *children) startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If the harness dies without running its cleanup, the kernel kills the
	// child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{owner: c, cmd: cmd, pid: cmd.Process.Pid, exit: make(chan struct{})}
	c.add(d)
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log = append(d.log, line)
			d.logMu.Unlock()
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.Contains(line, "serving ") {
				select {
				case addrc <- line[i+len(" on "):]:
				default:
				}
			}
		}
		// Wait only after stderr is drained: Wait closes the pipe.
		d.err = cmd.Wait()
		c.remove(d)
		close(d.exit)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exit:
		return nil, fmt.Errorf("dsgserve exited before serving: %v\n%s", d.err, d.stderr())
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, errors.New("dsgserve did not announce its address within 20s")
	}
}

func (d *daemon) stderr() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, "\n")
}

// kill stops the process the hard way and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exit
}

// drain sends SIGTERM and demands the graceful path: "drained cleanly" on
// stderr and exit status 0.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("SIGTERM: %v", err)
	}
	select {
	case <-d.exit:
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("daemon did not exit within 20s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("daemon exit: %v\n%s", d.err, d.stderr())
	}
	if !strings.Contains(d.stderr(), "drained cleanly") {
		return fmt.Errorf("daemon exited 0 without \"drained cleanly\":\n%s", d.stderr())
	}
	return nil
}
