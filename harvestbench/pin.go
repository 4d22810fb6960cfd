package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// Measurement runs on one vCPU. On the 2-vCPU virtual machine this was
// built on, every wake-up that crosses vCPUs costs an inter-processor
// interrupt and a host scheduling decision: spreading the fleet over both
// vCPUs doubled its CPU per request and made latency follow the host's
// other tenants. With the generator and all three daemons on one vCPU,
// wake-ups stay inside the guest scheduler and runs repeat. The fleet still
// boots on every vCPU (set-up is CPU-bound and parallel); it is pinned once
// its preload is done.
const pinCPU = 0

var (
	pinning   = fmt.Sprintf("generator and fleet on CPU %d after set-up", pinCPU)
	pinnedCPU = fmt.Sprintf("cpu%d", pinCPU) // its line in /proc/stat
)

// pinTasks sets the CPU affinity of every thread of pid to pinCPU. Threads
// the process starts later inherit it from their creator; a second pass
// catches any created during the first.
func pinTasks(pid int) error {
	var mask [16]uint64 // 1024 CPUs, the kernel's cpumask size
	mask[pinCPU/64] = 1 << (pinCPU % 64)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/" + strconv.Itoa(pid) + "/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return fmt.Errorf("pin thread %d of %d: %w", tid, pid, errno)
			}
		}
	}
	return nil
}

// pin moves the generator and the three daemons onto pinCPU.
func (f *fleet) pin() error {
	for _, pid := range []int{os.Getpid(), f.router.pid(), f.primary.pid(), f.follower.pid()} {
		if err := pinTasks(pid); err != nil {
			return err
		}
	}
	return nil
}
