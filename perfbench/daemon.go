package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running rtrsimd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	readyS  float64 // spawn to first /healthz 200, seconds
	drained chan struct{}
}

var servingLine = regexp.MustCompile(`on http://(\S+) `)

// spawnDaemon starts rtrsimd on an ephemeral loopback port and waits
// until /healthz answers 200. The address comes from the daemon's
// startup line, which it prints once its worlds are built and its
// listener is open.
func spawnDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should the harness die without stopping it, the kernel kills the
	// daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("%s exited before serving", bin)
		}
		d.addr = addr
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not start within 60s", bin)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("%s: /healthz never answered 200", bin)
		}
		time.Sleep(time.Millisecond)
	}
	d.readyS = time.Since(start).Seconds()
	client.CloseIdleConnections()
	return d, nil
}

// peakRSSMiB reads the daemon's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// stop sends SIGTERM (the daemon drains and exits 2), kills it if it
// lingers, and waits for the process and its stderr reader to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait() // exit status 2 is the daemon's normal drained exit
}

// vmHWM returns a process's peak resident set in MiB (pid 0: this
// process).
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.Atoi(f[1])
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS clears this process's VmHWM so a later vmHWM reading
// excludes what input generation allocated.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
