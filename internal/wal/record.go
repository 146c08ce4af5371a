package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"knncost/internal/geom"
)

// Kind discriminates the record types carried by the log.
type Kind uint8

const (
	// KindAppend adds points to a relation's delta overlay.
	KindAppend Kind = 1
	// KindDelete removes every occurrence of the listed coordinates.
	KindDelete Kind = 2
	// KindDrop records the intent to remove a relation. It is fsynced
	// before the disk-cache registry forgets the relation, so a crash in
	// between cannot resurrect the relation on restart.
	KindDrop Kind = 4
)

// Kind 3 is not reused: it was the checkpoint record of the store's cache
// formats before 9, whose logs are a clean miss, so a kind-3 frame is
// malformed.

// mutates reports whether records of kind k change a relation's points.
func (k Kind) mutates() bool { return k == KindAppend || k == KindDelete }

// Record is one durable log entry.
type Record struct {
	// LSN is the log sequence number, assigned contiguously by Append.
	LSN uint64
	// Kind selects which of the remaining fields are meaningful.
	Kind Kind
	// Relation names the relation the record applies to.
	Relation string
	// Points carries the coordinates of KindAppend / KindDelete records.
	Points []geom.Point
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// frameHeader is [u32 payload length][u32 CRC32-C of payload].
	frameHeader = 8
	// maxPayload bounds a single record so a corrupt length field cannot
	// drive a giant allocation during replay.
	maxPayload = 64 << 20
	// maxName bounds relation names (mirrors the service-layer limit).
	maxName = 256
)

var (
	errShortFrame  = errors.New("wal: short frame")
	errBadChecksum = errors.New("wal: checksum mismatch")
	errBadPayload  = errors.New("wal: malformed payload")
	errHugePayload = errors.New("wal: payload length out of range")
)

// appendFrame serializes r (including the frame header) onto buf.
func appendFrame(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(buf)
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = append(buf, byte(r.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(r.Relation)))
	buf = append(buf, r.Relation...)
	switch r.Kind {
	case KindAppend, KindDelete:
		buf = binary.AppendUvarint(buf, uint64(len(r.Points)))
		for _, pt := range r.Points {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pt.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pt.Y))
		}
	case KindDrop:
		// relation name only
	}
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodeFrame reads one frame from data. It returns the record and the
// number of bytes consumed, or an error when the frame is torn, corrupt, or
// malformed — the caller treats any error as the end of the valid prefix.
func decodeFrame(data []byte) (Record, int, error) {
	if len(data) < frameHeader {
		return Record{}, 0, errShortFrame
	}
	n := binary.LittleEndian.Uint32(data)
	if n == 0 || n > maxPayload {
		return Record{}, 0, errHugePayload
	}
	if len(data) < frameHeader+int(n) {
		return Record{}, 0, errShortFrame
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return Record{}, 0, errBadChecksum
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeader + int(n), nil
}

func decodePayload(p []byte) (Record, error) {
	var r Record
	var n int
	r.LSN, n = binary.Uvarint(p)
	if n <= 0 {
		return r, errBadPayload
	}
	p = p[n:]
	if len(p) < 1 {
		return r, errBadPayload
	}
	r.Kind = Kind(p[0])
	p = p[1:]
	nameLen, n := binary.Uvarint(p)
	if n <= 0 || nameLen > maxName || uint64(len(p)-n) < nameLen {
		return r, errBadPayload
	}
	r.Relation = string(p[n : n+int(nameLen)])
	p = p[n+int(nameLen):]
	switch r.Kind {
	case KindAppend, KindDelete:
		count, n := binary.Uvarint(p)
		if n <= 0 {
			return r, errBadPayload
		}
		p = p[n:]
		// Bound count before multiplying: a crafted varint near 2^64 would
		// make count*16 wrap and pass the equality check, then panic the
		// allocation below.
		if count > uint64(len(p))/16 || uint64(len(p)) != count*16 {
			return r, errBadPayload
		}
		r.Points = make([]geom.Point, count)
		for i := range r.Points {
			r.Points[i].X = math.Float64frombits(binary.LittleEndian.Uint64(p[i*16:]))
			r.Points[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(p[i*16+8:]))
		}
	case KindDrop:
		if len(p) != 0 {
			return r, errBadPayload
		}
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return r, nil
}
