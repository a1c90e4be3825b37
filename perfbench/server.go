package main

import (
	"bufio"
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

	"treesched/internal/service"
)

// server is one launched schedserver process. It runs with the shipped
// flag defaults; only the listen address is set.
type server struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time // exec time
	done  chan error
}

func startServer(bin string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s := &server{cmd: exec.Command(bin, "-addr", addr), addr: addr, done: make(chan error, 1)}
		// The server must not outlive the benchmark, even one that dies.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		s.start = time.Now()
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() { s.done <- s.cmd.Wait() }()
		if lastErr = s.waitReady(10 * time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, fmt.Errorf("schedserver never became ready: %w", lastErr)
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("schedserver exited: %v", err)
		default:
		}
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no /healthz within %s: %v", limit, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM (the server drains gracefully) and waits for the
// process to exit, killing it if the drain overruns.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.cmd.Process.Kill()
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		return <-s.done
	}
}

// cpuMs reads the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuMs() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 0,
	// utime field 11 and stime field 12, in clock ticks (USER_HZ = 100).
	rest := string(data)
	rest = rest[strings.LastIndexByte(rest, ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) * 10, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// metrics scrapes GET /metrics.
func (s *server) metrics() (service.MetricsSnapshot, error) {
	var snap service.MetricsSnapshot
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}
