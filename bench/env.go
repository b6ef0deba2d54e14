package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the host description printed beside the numbers, so a
// reader can tell which host class they belong to and whether a noisy
// neighbour bent them.
type environment struct {
	nproc, gomaxprocs int
	kernel, cpu       string
	walDir, walFS     string
	load1             float64
}

func readEnvironment(o options) environment {
	e := environment{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		kernel:     firstLine("/proc/sys/kernel/osrelease"),
		cpu:        cpuModel(),
		walDir:     o.walDir,
		load1:      loadAverage(),
	}
	if e.walDir == "" {
		e.walDir = o.outDir
	}
	e.walFS = fsType(e.walDir)
	return e
}

func (e environment) print(w io.Writer, when string) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d kernel=%s cpu=%q %s %s/%s\n",
		e.nproc, e.gomaxprocs, e.kernel, e.cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "wal directory: %s (%s)\n", e.walDir, e.walFS)
	fmt.Fprintf(w, "load average %s: %.2f\n", when, e.load1)
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAverage returns the 1-minute load average (0 where unavailable).
func loadAverage() float64 {
	f := strings.Fields(firstLine("/proc/loadavg"))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// stolen returns the CPU time the hypervisor has withheld from this guest
// since boot, summed over its CPUs (0 where the kernel does not account it).
func stolen() time.Duration {
	f := strings.Fields(firstLine("/proc/stat"))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * (time.Second / 100) // USER_HZ
}

// fsType names the filesystem holding dir, by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs magic %#x", uint32(st.Type))
}
