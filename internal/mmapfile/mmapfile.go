// Package mmapfile memory-maps files read-only; on platforms without mmap
// support it degrades transparently to a plain heap read.
//
// Nothing in this module may import it. The store mapped its cache
// artifacts through it until cache format 5 (DESIGN.md §15) replaced the
// file-per-artifact layout with heap-read bundles; the package survives,
// code unchanged, only because the frozen benchmark (benchmark/layers.go,
// the mmapfile.open_us probe) compiles against Open, Len and Close. The
// next change to the benchmark should delete that probe and this package
// together.
//
// Lifetime: the mapping stays valid as long as the *File is reachable.
// Close unmaps eagerly; a File that is simply dropped is unmapped by a
// finalizer when the garbage collector proves it unreachable. Slices into
// a mapping do not, by themselves, keep it alive.
package mmapfile

import "sync/atomic"

// File is a read-only memory-mapped file (or its heap-read fallback).
type File struct {
	data   []byte
	mapped bool // true when data is an OS mapping, not heap
	closed atomic.Bool
}

// Data returns the file contents. For a mapped File the slice aliases the
// OS mapping: it is read-only (writes fault) and valid until Close.
func (f *File) Data() []byte { return f.data }

// Mapped reports whether the contents are served by an OS mapping rather
// than a heap copy — i.e. whether the zero-copy path is active.
func (f *File) Mapped() bool { return f.mapped }

// Len returns the file length.
func (f *File) Len() int { return len(f.data) }
