//go:build !linux

package store

import (
	"context"
	"errors"
)

// claim never obtains a build claim where there are no open-file-description
// locks: two stores on one directory that miss the same fingerprint at once
// both build it, and write the same bytes.
func (c *diskCache) claim(context.Context, string) (release func(), err error) {
	return func() {}, errors.ErrUnsupported
}
