// Package snapshot defines the versioned, self-describing binary
// format that checkpoints carry full simulator state in, and the one
// state walk stateful modules implement to participate.
//
// A snapshot is a sequence of named sections. Each section holds the
// state of exactly one module (the kernel, one port, one memory, one
// CPU…); the container frames every section with its name, byte length,
// and a CRC-32 checksum, so corruption, truncation, and version skew all
// fail loudly with an error naming the offending section — a snapshot
// never half-loads. A module implements Stateful: one WalkState method
// that visits its fields through a Codec, which appends them when saving
// and overwrites them when loading, so a module spells its layout once.
// config.System enumerates the modules in deterministic build order, so
// there is no central God-encoder to keep in sync.
//
// See docs/SNAPSHOT.md for the byte-level layout, the versioning
// rules, and the map of which module owns which section.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
)

// Magic identifies a snapshot file; Version is bumped on any
// incompatible change to the container or to a section payload.
const (
	Magic   = "MPSNAP\x00\x01"
	Version = uint32(2)
)

// Stateful is implemented by modules whose dynamic state travels in a
// snapshot. WalkState visits that state once, in section order, through
// c. A walk checks a value only where it compares one decoded value
// with a constant or with the freshly built module (geometry,
// capacities, index ranges), or where the walk itself would panic, loop
// or over-allocate without the check; such a check holds trivially when
// saving. Every rule that relates two values, or a value to another
// section's state, is the module's Check, which the system runs once
// every section has loaded — so no walk depends on the order sections
// load in.
type Stateful interface {
	WalkState(c *Codec) error
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
	var b uint8
	if v {
		b = 1
	}
	e.U8(b)
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

// NewDecoder wraps a raw payload.
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

// fixed returns the next n ≤ 8 bytes, or n zero bytes once an error is
// sticky.
func (d *Decoder) fixed(n int) []byte {
	if b := d.take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 { return d.fixed(1)[0] }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

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
	enc   Encoder // the snapshot so far: Save walks sections straight into it
	codec Codec   // a saving codec over enc
	names map[string]bool
	err   error
}

// NewWriter starts a snapshot with the magic and version header.
func NewWriter() *Writer {
	w := &Writer{names: make(map[string]bool)}
	w.codec.enc = &w.enc
	w.enc.buf = append(w.enc.buf, Magic...)
	w.enc.U32(Version)
	return w
}

// begin frames the start of section name — the name, then a payload
// length that end patches — and returns the offset the payload starts
// at, or -1 for a duplicate name: each module owns exactly one section,
// and Finish reports the error.
func (w *Writer) begin(name string) int {
	if w.names[name] {
		if w.err == nil {
			w.err = fmt.Errorf("snapshot: duplicate section %q", name)
		}
		return -1
	}
	w.names[name] = true
	w.enc.String(name)
	w.enc.U32(0)
	return len(w.enc.buf)
}

// end patches the length of the payload that starts at start and
// appends its CRC-32 (IEEE).
func (w *Writer) end(start int) {
	payload := w.enc.buf[start:]
	binary.LittleEndian.PutUint32(w.enc.buf[start-4:], uint32(len(payload)))
	w.enc.U32(crc32.ChecksumIEEE(payload))
}

// Add frames payload as section name: name, length, payload, CRC-32
// (IEEE) of the payload.
func (w *Writer) Add(name string, payload []byte) {
	if start := w.begin(name); start >= 0 {
		w.enc.buf = append(w.enc.buf, payload...)
		w.end(start)
	}
}

// Save walks s straight into a new section named name.
func (w *Writer) Save(name string, s Stateful) {
	start := w.begin(name)
	if start < 0 {
		return
	}
	if err := s.WalkState(&w.codec); err != nil && w.err == nil {
		w.err = sectionErr(name, err)
	}
	w.end(start)
}

// Finish returns the assembled snapshot bytes.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.enc.buf, nil
}

// File is a parsed snapshot: checksum-verified named sections.
type File struct {
	sections map[string][]byte
	order    []string
	dec      Decoder // the section being loaded
	codec    Codec   // a loading codec over dec
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
	f.codec.dec = &f.dec
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

// Load walks the named section into s, which must consume the whole
// payload. Errors name the section. Loads from one File share its codec,
// so they must not run concurrently.
func (f *File) Load(name string, s Stateful) error {
	p, ok := f.sections[name]
	if !ok {
		return fmt.Errorf("snapshot: missing section %q (have %v)", name, f.Names())
	}
	f.dec = Decoder{buf: p}
	err := s.WalkState(&f.codec)
	if err == nil {
		err = f.dec.Finish()
	}
	if err != nil {
		return sectionErr(name, err)
	}
	return nil
}

// Names returns the section names in sorted order.
func (f *File) Names() []string {
	names := append([]string(nil), f.order...)
	sort.Strings(names)
	return names
}

// sectionErr wraps err with the section name so every restore failure
// reads "snapshot: section "x": ...".
func sectionErr(name string, err error) error {
	return fmt.Errorf("snapshot: section %q: %w", name, err)
}

// Codec walks state in one direction. WalkState passes each field by
// pointer: saving appends its value to the section, loading overwrites
// it with the next value read. Load errors are sticky, as on the
// Decoder: after the first one every field reads as zero, so a walk runs
// straight-line and checks Err only where a read value sizes or indexes
// something.
type Codec struct {
	enc *Encoder
	dec *Decoder
}

// Loading reports whether the walk overwrites state from a section. The
// few steps that only happen on load (re-allocating host memory,
// re-committing signals) branch on it.
func (c *Codec) Loading() bool { return c.dec != nil }

// Err returns the sticky load error; saving never fails.
func (c *Codec) Err() error {
	if c.dec == nil {
		return nil
	}
	return c.dec.Err()
}

// Fail records err as the load error unless one is already sticky, and
// returns the sticky error.
func (c *Codec) Fail(err error) error {
	if c.dec == nil {
		return err
	}
	return c.dec.Fail(err)
}

// walk walks *p through the decoder's read or the encoder's write.
func walk[T any](c *Codec, p *T, read func(*Decoder) T, write func(*Encoder, T)) {
	if c.dec != nil {
		*p = read(c.dec)
		return
	}
	write(c.enc, *p)
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) { walk(c, p, (*Decoder).U8, (*Encoder).U8) }

// Bool walks a bool as one byte.
func (c *Codec) Bool(p *bool) { walk(c, p, (*Decoder).Bool, (*Encoder).Bool) }

// U32 walks a little-endian uint32.
func (c *Codec) U32(p *uint32) { walk(c, p, (*Decoder).U32, (*Encoder).U32) }

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) { walk(c, p, (*Decoder).U64, (*Encoder).U64) }

// Int walks a non-negative int as a uint64.
func (c *Codec) Int(p *int) { walk(c, p, (*Decoder).Int, (*Encoder).Int) }

// String walks a length-prefixed string.
func (c *Codec) String(p *string) { walk(c, p, (*Decoder).String, (*Encoder).String) }

// Bytes walks a length-prefixed byte slice; loading allocates a copy.
func (c *Codec) Bytes(p *[]byte) { walk(c, p, (*Decoder).Bytes32, (*Encoder).Bytes32) }

// U64Array walks each element of a fixed-length array in place, with no
// count prefix: the length is the built module's.
func (c *Codec) U64Array(v []uint64) {
	for i := range v {
		c.U64(&v[i])
	}
}

// U32s walks a length-prefixed []uint32.
func (c *Codec) U32s(p *[]uint32) { walk(c, p, (*Decoder).U32s, (*Encoder).U32s) }

// Image walks a fixed-size image in place, length-prefixed like Bytes.
// Loading requires the length to equal len(buf), the size the module was
// built with, and decodes straight into buf.
func (c *Codec) Image(buf []byte) {
	n := uint32(len(buf))
	c.U32(&n)
	if c.dec == nil {
		c.enc.buf = append(c.enc.buf, buf...)
		return
	}
	if int(n) != len(buf) {
		c.Fail(fmt.Errorf("image size mismatch: snapshot has %d bytes, system built with %d", n, len(buf)))
	}
	copy(buf, c.dec.take(len(buf)))
}

// Byte walks a one-byte named type such as a state or an op code.
func Byte[T ~uint8](c *Codec, p *T) {
	v := uint8(*p)
	c.U8(&v)
	if c.Loading() {
		*p = T(v)
	}
}

// Word walks a 64-bit named type such as a transaction tag.
func Word[T ~uint64](c *Codec, p *T) {
	v := uint64(*p)
	c.U64(&v)
	if c.Loading() {
		*p = T(v)
	}
}

// Slice walks a count-prefixed slice, elem walking one element in
// place. Loading starts from an empty slice and appends as it reads, so
// a corrupt count runs out of payload before it can over-allocate.
func Slice[T any](c *Codec, s *[]T, elem func(*T)) {
	n := uint32(len(*s))
	c.U32(&n)
	if c.Loading() {
		*s = nil
	}
	for i := 0; i < int(n) && c.Err() == nil; i++ {
		if c.Loading() {
			var zero T
			*s = append(*s, zero)
		}
		elem(&(*s)[i])
	}
}

// Map walks a count-prefixed map keyed by a 64-bit tag: each key, then
// its value as val walks it. Saving visits the keys in ascending order,
// so equal state gives equal bytes. Loading starts from an empty map and
// inserts as it reads; val receives the zero value and returns the one
// it loaded.
func Map[K ~uint64, V any](c *Codec, m *map[K]V, val func(k K, v V) V) {
	n := uint32(len(*m))
	c.U32(&n)
	if c.Loading() {
		*m = make(map[K]V)
		for ; n > 0 && c.Err() == nil; n-- {
			var k K
			var zero V
			Word(c, &k)
			(*m)[k] = val(k, zero)
		}
		return
	}
	keys := make([]K, 0, n)
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		Word(c, &k)
		val(k, (*m)[k])
	}
}
