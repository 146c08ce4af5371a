package store

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// fOFDSetLK is F_OFD_SETLK, which package syscall does not name: a
// non-blocking byte-range lock owned by the open file description rather
// than the process, so two opens of one file conflict whoever holds them,
// and the kernel drops the lock when its last descriptor closes — at the
// latest when its process dies.
const fOFDSetLK = 37

// claimPoll is how often a claim that is held elsewhere is tried again: a
// blocking lock cannot be interrupted, and the wait must end when the
// waiter's build is cancelled.
const claimPoll = time.Millisecond

// claim takes fp's build claim: a write lock on one byte of <dir>/claims,
// at an offset the fingerprint's leading hex digits pick, through a fresh
// open of the file, so two workers of one store exclude each other as two
// processes do. Held elsewhere, it waits until the holder releases it or
// dies, or until ctx ends (then it returns ctx's error). The claim is
// advisory: the caller builds as well when it cannot be had. release,
// never nil, closes the file and with it the lock.
func (c *diskCache) claim(ctx context.Context, fp string) (release func(), err error) {
	f, err := os.OpenFile(filepath.Join(c.dir, "claims"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return func() {}, err
	}
	off, _ := strconv.ParseUint(fp[:min(len(fp), 8)], 16, 32) // a fingerprint that is not hex shares byte 0
	lk := syscall.Flock_t{Type: syscall.F_WRLCK, Whence: io.SeekStart, Start: int64(off), Len: 1}
	for {
		err = syscall.FcntlFlock(f.Fd(), fOFDSetLK, &lk)
		if err == nil {
			return func() { f.Close() }, nil
		}
		if err == syscall.EAGAIN || err == syscall.EACCES { // held
			select {
			case <-ctx.Done():
				err = ctx.Err()
			case <-time.After(claimPoll):
				continue
			}
		} else if err == syscall.EINTR {
			continue
		}
		f.Close()
		return func() {}, err
	}
}
