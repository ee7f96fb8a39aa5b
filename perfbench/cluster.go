package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
)

// parentEnv carries the benchmark's pid to its daemon children, which
// arm a parent-death signal against it (see runDaemon).
const parentEnv = "PERFBENCH_PARENT"

// cluster is one set of daemon OS processes plus the front-end's client
// for them.
type cluster struct {
	procs []*wire.HostProc
	pids  []int
	rc    *wire.RemoteCluster
	dir   string
}

// live tracks every daemon this process has spawned and not yet
// killed, so an interrupted run can kill them on its way out; pidFile
// mirrors it on disk, so the next run can find daemons a kill -9 of
// this process left behind.
var live struct {
	mu    sync.Mutex
	procs map[*wire.HostProc]int
}

func pidFile() string { return filepath.Join(workDir, "daemons.pid") }

// track records p (pid) as live, or forgets it when pid is 0, and
// rewrites the pid file.
func track(p *wire.HostProc, pid int) error {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.procs == nil {
		live.procs = map[*wire.HostProc]int{}
	}
	if pid == 0 {
		delete(live.procs, p)
	} else {
		live.procs[p] = pid
	}
	var b strings.Builder
	for _, pid := range live.procs {
		fmt.Fprintln(&b, pid)
	}
	return os.WriteFile(pidFile(), []byte(b.String()), 0o644)
}

// killAll kill -9s every tracked daemon and waits for each to exit.
func killAll() {
	live.mu.Lock()
	procs := make([]*wire.HostProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.mu.Unlock()
	for _, p := range procs {
		p.Kill9()
		track(p, 0)
	}
}

// reapStale kills daemons an earlier run left alive. A pid from the pid
// file is only touched while its command line still names this
// benchmark's binary, so a recycled pid is never signalled. It returns
// how many it killed, and an error when one survives.
func reapStale() (int, error) {
	data, err := os.ReadFile(pidFile())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	killed := 0
	for _, f := range strings.Fields(string(data)) {
		pid, err := strconv.Atoi(f)
		if err != nil || pid <= 0 {
			continue
		}
		if !isOurDaemon(pid, exe) {
			continue
		}
		syscall.Kill(pid, syscall.SIGKILL)
		killed++
		deadline := time.Now().Add(5 * time.Second)
		for isOurDaemon(pid, exe) {
			if time.Now().After(deadline) {
				return killed, fmt.Errorf("stale daemon %d survived kill -9", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return killed, os.Remove(pidFile())
}

// isOurDaemon reports whether pid is a live (not zombie) process
// running exe.
func isOurDaemon(pid int, exe string) bool {
	cmd, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/cmdline")
	if err != nil || len(cmd) == 0 { // gone, or a zombie (empty cmdline)
		return false
	}
	arg0, _, _ := strings.Cut(string(cmd), "\x00")
	return arg0 == exe
}

// startCluster spawns n daemon processes with state directories under
// dir (node 0 bootstraps, the rest join through it), waits until every
// daemon and a client dialled through node 0 all see n members, and
// returns the cluster. On error everything it spawned is killed.
func startCluster(dir string, n int) (c *cluster, err error) {
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.kill()
			c = nil
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c, err
	}
	exe, err := os.Executable()
	if err != nil {
		return c, err
	}
	for i := 0; i < n; i++ {
		cfg := wire.HostConfig{
			Listen:   "127.0.0.1:0",
			StateDir: filepath.Join(dir, fmt.Sprintf("node%d", i)),
		}
		if i > 0 {
			cfg.Join = c.procs[0].Addr
		}
		p, err := wire.SpawnHost(cfg, parentEnv+"="+strconv.Itoa(os.Getpid()))
		if err != nil {
			return c, fmt.Errorf("spawn daemon %d: %w", i, err)
		}
		c.procs = append(c.procs, p)
		pid, err := childPID(exe, p)
		if err != nil {
			return c, err
		}
		c.pids = append(c.pids, pid)
		if err := track(p, pid); err != nil {
			return c, err
		}
	}
	// A member list can lag the joins that grew it, so no daemon is
	// dialled until each one reports all n members; the client then
	// dials through node 0, which serialises every join.
	deadline := time.Now().Add(10 * time.Second)
	for i, p := range c.procs {
		for {
			rc, err := wire.DialCluster(p.Addr, wire.RemoteOptions{})
			size := 0
			if err == nil {
				size = rc.Size()
				rc.Close()
			}
			if size == n {
				break
			}
			if time.Now().After(deadline) {
				return c, fmt.Errorf("daemon %d sees %d of %d members (dial error: %v)", i, size, n, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	rc, err := wire.DialCluster(c.procs[0].Addr, wire.RemoteOptions{Heartbeat: true})
	if err != nil {
		return c, err
	}
	c.rc = rc
	if rc.Size() != n {
		return c, fmt.Errorf("client sees %d of %d members", rc.Size(), n)
	}
	for i := 0; i < n; i++ {
		if !rc.Alive(i) {
			return c, fmt.Errorf("member %d not alive", i)
		}
	}
	return c, nil
}

// childPID finds the pid of the daemon just spawned: the one child of
// this process running exe that is not tracked yet (daemons are spawned
// one at a time, and this process starts no other copies of itself).
// SpawnHost does not expose the pid, and /proc is where the benchmark
// reads the daemons' CPU and I/O counters anyway.
func childPID(exe string, p *wire.HostProc) (int, error) {
	me := strconv.Itoa(os.Getpid())
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || !isOurDaemon(pid, exe) {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		i := strings.LastIndexByte(string(stat), ')')
		f := strings.Fields(string(stat[i+1:]))
		if len(f) < 2 || f[1] != me {
			continue
		}
		if !trackedPID(pid) {
			return pid, nil
		}
	}
	return 0, fmt.Errorf("no /proc entry for daemon %d (%s)", p.ID, p.Addr)
}

func trackedPID(pid int) bool {
	live.mu.Lock()
	defer live.mu.Unlock()
	for _, p := range live.procs {
		if p == pid {
			return true
		}
	}
	return false
}

// kill closes the client and kill -9s every daemon of the cluster,
// waiting for each to exit, then deletes the state directory.
func (c *cluster) kill() {
	if c.rc != nil {
		c.rc.Close()
	}
	for _, p := range c.procs {
		p.Kill9()
		track(p, 0)
	}
	os.RemoveAll(c.dir)
}
