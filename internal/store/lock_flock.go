//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package store

import (
	"os"
	"syscall"
)

// lockFile takes the advisory lock (flock) on path, creating the file if
// need be: shared and waiting for it, or exclusive and not waiting —
// errLockBusy when anyone holds it. The lock belongs to the open file, so
// two stores in one process exclude each other exactly as two processes do.
// release, never nil, closes the file and with it the lock.
func lockFile(path string, exclusive bool) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return func() {}, err
	}
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX | syscall.LOCK_NB
	}
	for {
		if err = syscall.Flock(int(f.Fd()), how); err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK {
			err = errLockBusy
		}
		return func() {}, err
	}
	return func() { f.Close() }, nil
}
