package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps with sub-millisecond precision without holding a
// processor. The runtime's timers wake a blocked process up to a
// millisecond late on Linux (the poller waits in whole milliseconds),
// which an open loop would charge to every op as generator lateness; a
// nanosleep syscall is precise but keeps its P until sysmon retakes it,
// starving the daemons on a small machine. A timerfd read through the
// runtime's network poller has neither problem: the goroutine parks, and
// the poller wakes as soon as the timer expires.
type pacer struct {
	fd  uintptr // raw descriptor; File.Fd would switch it to blocking mode
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "pacer-timerfd")}, nil
}

// sleep blocks for d.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one-shot), it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
