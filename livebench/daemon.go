package main

import (
	"cmp"
	"context"
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
)

// daemon is one running specinferd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs the daemon and returns once /healthz answers 200,
// with the time from exec to that answer.
func startDaemon(bin string, args []string, gomaxprocs int) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("pick daemon port: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = nil, os.Stderr
	// Take the daemon down with the benchmark if it dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for {
		if resp, err := hc.Get("http://" + addr + "/healthz"); err == nil {
			_ = resp.Body.Close() // only the status is read
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, 0, fmt.Errorf("daemon exited before becoming healthy: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = d.stop() // the timeout is the error reported
			return nil, 0, errors.New("daemon not healthy within 30s")
		}
	}
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after 10s,
// and waits for the process to exit. Returns the exit error of a
// graceful stop that did not exit 0.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("daemon ignored SIGTERM for 10s; killed")
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// metricz is the subset of the daemon's /metricz body the benchmark
// reads.
type metricz struct {
	Completed         uint64  `json:"completed"`
	Iterations        uint64  `json:"iterations"`
	SpecVerifications uint64  `json:"spec_verifications"`
	MeanAcceptedLen   float64 `json:"mean_accepted_len"`
	PrefixCache       *struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"prefix_cache"`
}

func getMetricz(ctx context.Context, addr string) (metricz, error) {
	var m metricz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metricz", nil)
	if err != nil {
		return m, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return m, fmt.Errorf("GET /metricz: %w", err)
	}
	defer func() { _ = resp.Body.Close() }() // read-only
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metricz: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /metricz: %w", err)
	}
	return m, nil
}

// daemonFlags are the specinferd defaults the traced build copies. They
// are read from the binary's -h output, so the traced build serves the
// configuration the daemon would.
type daemonFlags struct {
	width, depth, batch, queue, maxNew, workers int
	seed                                        uint64
	drain                                       time.Duration
	verifier, routePolicy                       string
}

// readDaemonFlags runs `bin -h` and reads the defaults the traced build
// copies. It fails when a default it does not copy differs from what
// the traced build serves: greedy tree mode with one SSM on the Alpaca
// pair, no adaptive tree or policy, and the workload flags (variant,
// replicas, prefix cache) off unless a workload sets them.
func readDaemonFlags(bin string) (daemonFlags, error) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return daemonFlags{}, fmt.Errorf("%s -h: %w", bin, err)
	}
	defs := flagDefaults(string(out))
	var errs []error
	scan := func(name string, dst any) {
		raw, ok := defs[name]
		if !ok {
			errs = append(errs, fmt.Errorf("specinferd has no -%s flag", name))
			return
		}
		var err error
		switch d := dst.(type) {
		case *int:
			*d, err = strconv.Atoi(cmp.Or(raw, "0"))
		case *int64:
			*d, err = strconv.ParseInt(cmp.Or(raw, "0"), 10, 64)
		case *uint64:
			*d, err = strconv.ParseUint(cmp.Or(raw, "0"), 10, 64)
		case *time.Duration:
			*d, err = time.ParseDuration(cmp.Or(raw, "0s"))
		case *string:
			// A set default is quoted; anything else is the usage text's
			// own words, and the default is empty.
			if s, qerr := strconv.Unquote(raw); qerr == nil {
				*d = s
			}
		case *bool:
			*d = raw == "true"
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("specinferd -%s default %q: %w", name, raw, err))
		}
	}
	var f daemonFlags
	scan("width", &f.width)
	scan("depth", &f.depth)
	scan("batch", &f.batch)
	scan("queue", &f.queue)
	scan("max-new-tokens", &f.maxNew)
	scan("workers", &f.workers)
	scan("seed", &f.seed)
	scan("drain-timeout", &f.drain)
	scan("verifier", &f.verifier)
	scan("route-policy", &f.routePolicy)
	var (
		mode, ds, variant            string
		stochastic, adaptive, policy bool
		ssms, replicas               int
		prefixMB                     int64
	)
	scan("mode", &mode)
	scan("dataset", &ds)
	scan("variant", &variant)
	scan("stochastic", &stochastic)
	scan("adaptive", &adaptive)
	scan("policy", &policy)
	scan("ssms", &ssms)
	scan("replicas", &replicas)
	scan("prefix-cache-mb", &prefixMB)
	if err := errors.Join(errs...); err != nil {
		return f, err
	}
	if mode != "tree" || ds != dataset().Name || variant != "" || stochastic || adaptive || policy ||
		ssms != 1 || replicas != 1 || prefixMB != 0 {
		return f, fmt.Errorf("specinferd defaults changed (mode %q, dataset %q, variant %q, stochastic %v, adaptive %v, policy %v, ssms %d, replicas %d, prefix-cache-mb %d); "+
			"the traced build serves greedy tree mode with one SSM on the %s pair, with no variant, router or prefix cache unless a workload sets them",
			mode, ds, variant, stochastic, adaptive, policy, ssms, replicas, prefixMB, dataset().Name)
	}
	return f, nil
}

// flagDefaults parses flag.PrintDefaults output into each flag's
// default as printed: empty for a zero value (which PrintDefaults
// omits), quoted for a string.
func flagDefaults(help string) map[string]string {
	defs := map[string]string{}
	var name, usage string
	flush := func() {
		if name == "" {
			return
		}
		defs[name] = ""
		if i := strings.LastIndex(usage, " (default "); i >= 0 && strings.HasSuffix(usage, ")") {
			defs[name] = usage[i+len(" (default ") : len(usage)-1]
		}
	}
	for _, line := range strings.Split(help, "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(line, "  -") {
			flush()
			// "  -name type", or "  -x\tusage" for a short bool flag.
			head, rest, _ := strings.Cut(t, "\t")
			name, usage = strings.Fields(head)[0][1:], strings.TrimSpace(rest)
			continue
		}
		if name != "" && t != "" {
			usage = strings.TrimSpace(usage + " " + t)
		}
	}
	flush()
	return defs
}
