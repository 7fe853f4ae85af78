package main

// The pitserve process under test: build, boot on loopback, observe from
// outside (/proc, the ops listener), stop and reap.

import (
	"bufio"
	"bytes"
	"context"
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
	"syscall"
	"time"
)

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 10 * time.Millisecond

// repoRoot walks up from the working directory to the module root, so
// the benchmark works from the checkout root (the driver) and from its
// own directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/pitserve from source into the checkout's
// build directory and returns the binary's path.
func buildServer(ctx context.Context, root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "pitserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pitserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pitserve: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// server to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// pitserve is one running server under test.
type pitserve struct {
	cmd      *exec.Cmd
	api, ops string // base URLs
	logPath  string
	logFile  *os.File
	probe    *http.Client
	exited   chan struct{} // closed once the process has been reaped
}

// startServer execs pitserve with the workload's flags plus ephemeral
// API and ops addresses. The caller must stop it.
func startServer(bin, logPath string, flags []string) (*pitserve, error) {
	apiAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	opsAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", apiAddr, "-ops-addr", opsAddr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start pitserve: %w", err)
	}
	s := &pitserve{
		cmd:     cmd,
		api:     "http://" + apiAddr,
		ops:     "http://" + opsAddr,
		logPath: logPath,
		logFile: logFile,
		probe:   &http.Client{Timeout: 10 * time.Second},
		exited:  make(chan struct{}),
	}
	// The reaper ends when the process does; stop waits for it.
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: readiness and answers are what is checked
		close(s.exited)
	}()
	return s, nil
}

// stop asks pitserve to drain, kills it if it does not, and reaps it.
func (s *pitserve) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	grace := time.NewTimer(10 * time.Second)
	defer grace.Stop()
	select {
	case <-s.exited:
	case <-grace.C:
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.probe.CloseIdleConnections()
	s.logFile.Close()
}

// logTail returns the end of the server's log for error reports.
func (s *pitserve) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// awaitReady polls /readyz until 200, running one calibration slice
// between polls so the wait both paces itself and yields the machine
// speed during the boot. It returns the slice times.
func (s *pitserve) awaitReady(ctx context.Context, cal *calibrator, timeout time.Duration) ([]float64, error) {
	deadline := time.Now().Add(timeout)
	var slices []float64
	for {
		slices = append(slices, cal.slice())
		resp, err := s.probe.Get(s.api + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return slices, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("pitserve exited during boot:\n%s", s.logTail())
		default:
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("pitserve not ready after %v:\n%s", timeout, s.logTail())
		}
	}
}

func (s *pitserve) get(url string) ([]byte, error) {
	resp, err := s.probe.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s = %d", url, resp.StatusCode)
	}
	return body, nil
}

// scrape reads the ops listener's Prometheus exposition.
func (s *pitserve) scrape() (metricSet, error) {
	body, err := s.get(s.ops + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

// liveHeapBytes returns HeapAlloc after three forced collections: the
// heap profile endpoint runs a GC when asked to, and three in a row let
// finalizers and the sweep settle, which is what makes the figure repeat.
func (s *pitserve) liveHeapBytes() (float64, error) {
	var body []byte
	for i := 0; i < 3; i++ {
		var err error
		if body, err = s.get(s.ops + "/debug/pprof/heap?gc=1&debug=1"); err != nil {
			return 0, err
		}
	}
	return parseHeapAlloc(body)
}

// cpuTicks returns the server's utime+stime in clock ticks.
func (s *pitserve) cpuTicks() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// peakRSSBytes returns the server's VmHWM.
func (s *pitserve) peakRSSBytes() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// metricSet maps a series (name plus label set, as exposed) to its value.
type metricSet map[string]float64

func parseMetrics(body []byte) metricSet {
	out := metricSet{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the family, whatever its labels.
func (m metricSet) sum(family string) float64 {
	total := 0.0
	for series, v := range m {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
		}
	}
	return total
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name may hold spaces and parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:])) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return utime + stime, nil
}

// parseVmHWM extracts the peak resident set, in bytes, from the text of
// /proc/<pid>/status.
func parseVmHWM(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// parseHeapAlloc extracts "# HeapAlloc = N" from a debug=1 heap profile.
func parseHeapAlloc(profile []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(profile))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, errors.New("heap profile: no HeapAlloc line")
}
