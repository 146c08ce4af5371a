//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package store

import "errors"

// lockFile never obtains the lock where there is no flock: publishes go
// ahead without it and no sweep ever runs, so nothing is ever unlinked and
// the cache directory grows as it did before there was a sweep.
func lockFile(string, bool) (release func(), err error) {
	return func() {}, errors.ErrUnsupported
}
