package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one doradod process under test.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	exited chan struct{}
	werr   error // Wait's result, valid once exited is closed
}

// clockTick is the unit of utime and stime in /proc/PID/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// startServer launches doradod on a free loopback port with the durable
// store in storeDir, idle eviction and the periodic GC sweeper off, and
// two workers, one per client. It returns once the server is listening.
func startServer(ctx context.Context, bin, storeDir string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir,
		"-idle-evict", "0", "-gc-every", "0", "-workers", "2", "-log-level", "off")
	cmd.Stderr = os.Stderr
	// If the benchmark dies, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting doradod: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "doradod: serving on "); ok {
				addr <- strings.Fields(a)[0]
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // drains the pipe until exit
		s.werr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = a
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("doradod exited before listening: %v", s.werr)
	case <-time.After(20 * time.Second):
	case <-ctx.Done():
	}
	s.stop()
	return nil, errors.New("doradod did not start listening")
}

// cpu returns the process's user plus system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in bytes.
func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kib, err := strconv.ParseInt(f[0], 10, 64)
			return kib << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks doradod to drain and exit, kills it if it has not exited
// after 15 seconds, and waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	select {
	case <-s.exited:
		return
	case <-time.After(15 * time.Second):
	}
	s.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-s.exited
}
