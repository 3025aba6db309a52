package main

import (
	"bufio"
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
)

// served is one running remi-serve process.
type served struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  *os.File
	done chan error
}

// launch starts remi-serve with args and waits until /readyz answers 200.
// The returned duration runs from process start to the first 200: the
// set-up time a user of the service waits for.
func launch(bin, logPath string, args ...string) (*served, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &served{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(120 * time.Second)
	for {
		select {
		case err := <-s.done:
			s.done <- err
			logf.Close()
			return nil, 0, fmt.Errorf("remi-serve exited before ready (%v); log: %s", err, tail(logPath))
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("remi-serve not ready after 120s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (remi-serve drains and exits) and waits for the
// process; it kills the process if the drain takes longer than 30s.
func (s *served) stop() error {
	if s == nil || s.cmd == nil {
		return nil
	}
	defer func() { s.cmd = nil; s.log.Close() }()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("remi-serve did not drain within 30s; killed")
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *served) peakRSSMB() (float64, error) { return s.statusMB("VmHWM:") }

// rssMB reads the process's current resident set (VmRSS) in MiB.
func (s *served) rssMB() (float64, error) { return s.statusMB("VmRSS:") }

func (s *served) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}
