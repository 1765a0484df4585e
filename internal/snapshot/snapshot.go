// Package snapshot defines the versioned, self-describing binary
// format that checkpoints carry full simulator state in, and the
// capability interfaces stateful modules implement to participate.
//
// A snapshot is a sequence of named sections. Each section is written
// by exactly one module (the kernel, one port, one memory, one CPU…)
// through an Encoder and read back through a Decoder; the container
// frames every section with its name, byte length, and a CRC-32
// checksum, so corruption, truncation, and version skew all fail
// loudly with an error naming the offending section — a snapshot never
// half-loads. The format grows with the codebase: modules implement
// the Saver/Restorer capability pair (mirroring how sim.Sleeper and
// sim.Concurrent rolled out) and config.System enumerates them in
// deterministic build order, so there is no central God-encoder to
// keep in sync.
//
// See docs/SNAPSHOT.md for the byte-level layout, the versioning
// rules, and the map of which module owns which section.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Magic identifies a snapshot file; Version is bumped on any
// incompatible change to the container or to a section payload.
const (
	Magic   = "MPSNAP\x00\x01"
	Version = uint32(2)
)

// Saver is implemented by modules that can serialize their dynamic
// state. SaveState appends the module's state to enc; the container
// framing (name, length, checksum) is handled by the Writer.
type Saver interface {
	SaveState(enc *Encoder)
}

// Restorer is implemented by modules that can rebuild their dynamic
// state from a section written by their SaveState. RestoreState must
// validate structural invariants (geometry, capacities) against the
// freshly built module and fail rather than load inconsistent state.
type Restorer interface {
	RestoreState(dec *Decoder) error
}

// Encoder serializes primitive values into a growing byte buffer.
// Writes never fail; the buffer is framed and checksummed by the
// Writer when the section is added.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int appends an int as a uint64 (must be non-negative).
func (e *Encoder) Int(v int) { e.U64(uint64(v)) }

// Bytes32 appends a length-prefixed byte slice.
func (e *Encoder) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) { e.Bytes32([]byte(s)) }

// U32s appends a length-prefixed []uint32.
func (e *Encoder) U32s(v []uint32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(x)
	}
}

// Decoder deserializes primitive values from a section payload. The
// first malformed read makes the error sticky: every later read
// returns the zero value, and Err/Finish report what went wrong, so
// call sites can decode straight-line and check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a raw payload. Sections obtained through
// File.Section come pre-wrapped and checksum-verified.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records err (if no earlier error is sticky) and returns it.
func (d *Decoder) Fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.U64()) }

// Bytes32 reads a length-prefixed byte slice (copy of the payload).
func (d *Decoder) Bytes32() []byte {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

// U32s reads a length-prefixed []uint32.
func (d *Decoder) U32s() []uint32 {
	n := int(d.U32())
	if d.err != nil || n == 0 {
		return nil
	}
	if n*4 > len(d.buf)-d.off {
		d.err = fmt.Errorf("truncated payload: []uint32 of %d elems at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.U32()
	}
	return out
}

// Finish verifies the whole payload was consumed. A short read means
// the decoder and encoder disagree about the section layout — version
// skew the container checks cannot catch — so it is an error too.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.err = fmt.Errorf("payload not fully consumed: %d of %d bytes read", d.off, len(d.buf))
	}
	return d.err
}

// Writer assembles a snapshot from named sections.
type Writer struct {
	buf   []byte
	names map[string]bool
	err   error
}

// NewWriter starts a snapshot with the magic and version header.
func NewWriter() *Writer {
	w := &Writer{names: make(map[string]bool)}
	w.buf = append(w.buf, Magic...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Version)
	return w
}

// Add frames payload as section name: name, length, payload, CRC-32
// (IEEE) of the payload. Duplicate names are an error (reported by
// Finish) — each module owns exactly one section.
func (w *Writer) Add(name string, payload []byte) {
	if w.names[name] {
		if w.err == nil {
			w.err = fmt.Errorf("snapshot: duplicate section %q", name)
		}
		return
	}
	w.names[name] = true
	nb := []byte(name)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(nb)))
	w.buf = append(w.buf, nb...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = append(w.buf, payload...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
}

// AddSection runs save into a fresh Encoder and adds its payload.
func (w *Writer) AddSection(name string, save func(*Encoder)) {
	var enc Encoder
	save(&enc)
	w.Add(name, enc.Bytes())
}

// Finish returns the assembled snapshot bytes.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// File is a parsed snapshot: checksum-verified named sections.
type File struct {
	sections map[string][]byte
	order    []string
}

// ErrVersion distinguishes version skew from corruption so callers can
// suggest re-snapshotting instead of suspecting the storage layer.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Read parses and verifies a snapshot. Every section's checksum is
// checked up front; any mismatch, truncation, or unknown version is an
// error naming the offending section — Read never returns a partially
// valid File.
func Read(data []byte) (*File, error) {
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a snapshot file)")
	}
	off := len(Magic)
	ver := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if ver != Version {
		return nil, fmt.Errorf("%w: file has v%d, this build reads v%d", ErrVersion, ver, Version)
	}
	f := &File{sections: make(map[string][]byte)}
	for off < len(data) {
		if off+4 > len(data) {
			return nil, fmt.Errorf("snapshot: truncated section header at offset %d", off)
		}
		nameLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if nameLen <= 0 || off+nameLen > len(data) {
			return nil, fmt.Errorf("snapshot: truncated section name at offset %d", off)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		if off+4 > len(data) {
			return nil, fmt.Errorf("snapshot: section %q: truncated length", name)
		}
		payLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if payLen < 0 || off+payLen+4 > len(data) {
			return nil, fmt.Errorf("snapshot: section %q: truncated payload (%d bytes claimed, %d available)", name, payLen, len(data)-off)
		}
		payload := data[off : off+payLen]
		off += payLen
		sum := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, fmt.Errorf("snapshot: section %q: checksum mismatch (stored %#08x, computed %#08x)", name, sum, got)
		}
		if _, dup := f.sections[name]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", name)
		}
		f.sections[name] = payload
		f.order = append(f.order, name)
	}
	return f, nil
}

// Section returns a Decoder over the named section's payload, or an
// error if the snapshot has no such section.
func (f *File) Section(name string) (*Decoder, error) {
	p, ok := f.sections[name]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing section %q (have %v)", name, f.Names())
	}
	return NewDecoder(p), nil
}

// Has reports whether the named section exists.
func (f *File) Has(name string) bool {
	_, ok := f.sections[name]
	return ok
}

// Names returns the section names in sorted order.
func (f *File) Names() []string {
	names := append([]string(nil), f.order...)
	sort.Strings(names)
	return names
}

// SectionErr wraps err with the section name so every restore failure
// reads "snapshot: section "x": ...".
func SectionErr(name string, err error) error {
	return fmt.Errorf("snapshot: section %q: %w", name, err)
}
