package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

type kind uint8

type tag uint64

// prims holds a field for every Codec primitive and helper.
type prims struct {
	u8       uint8
	yes, no  bool
	u32      uint32
	u64      uint64
	i        int
	bytes    []byte
	s        string
	u32s     []uint32
	none     []uint32
	img      []byte
	arr      [3]uint64
	k        kind
	t        tag
	list     []int
	m        map[tag]string
	imgBuilt int // the image size a loading walk was built with
}

func (p *prims) WalkState(c *Codec) error {
	c.U8(&p.u8)
	c.Bool(&p.yes)
	c.Bool(&p.no)
	c.U32(&p.u32)
	c.U64(&p.u64)
	c.Int(&p.i)
	c.Bytes(&p.bytes)
	c.String(&p.s)
	c.U32s(&p.u32s)
	c.U32s(&p.none)
	if c.Loading() {
		p.img = make([]byte, p.imgBuilt)
	}
	c.Image(p.img)
	c.U64Array(p.arr[:])
	Byte(c, &p.k)
	Word(c, &p.t)
	Slice(c, &p.list, c.Int)
	Map(c, &p.m, func(_ tag, v string) string {
		c.String(&v)
		return v
	})
	return c.Err()
}

func samplePrims() *prims {
	return &prims{
		u8: 7, yes: true, u32: 0xdeadbeef, u64: 1 << 40, i: 42,
		bytes: []byte("hello"), s: "world", u32s: []uint32{1, 2, 3},
		img: []byte{9, 8, 7, 6}, arr: [3]uint64{5, 0, 1 << 60}, k: 3, t: 1 << 50,
		list: []int{4, 5}, m: map[tag]string{30: "c", 10: "a", 20: "b"},
	}
}

// TestRoundTrip saves every primitive through the Codec, checks the
// payload is exactly what the Encoder writes for the same values (map
// keys ascending), and loads it back field for field.
func TestRoundTrip(t *testing.T) {
	want := samplePrims()
	w := NewWriter()
	w.Save("alpha", want)
	w.Add("beta", []byte{9})
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	var e Encoder
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 40)
	e.Int(42)
	e.Bytes32([]byte("hello"))
	e.String("world")
	e.U32s([]uint32{1, 2, 3})
	e.U32s(nil)
	e.Bytes32([]byte{9, 8, 7, 6})
	e.U64(5)
	e.U64(0)
	e.U64(1 << 60)
	e.U8(3)
	e.U64(1 << 50)
	e.U32(2)
	e.Int(4)
	e.Int(5)
	e.U32(3)
	for i, v := range []string{"a", "b", "c"} {
		e.U64(uint64(10 * (i + 1)))
		e.String(v)
	}

	f, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v", got)
	}
	if !bytes.Equal(f.sections["alpha"], e.Bytes()) {
		t.Fatalf("saved payload differs from the Encoder layout:\n got %x\nwant %x", f.sections["alpha"], e.Bytes())
	}
	got := &prims{imgBuilt: len(want.img)}
	if err := f.Load("alpha", got); err != nil {
		t.Fatal(err)
	}
	got.imgBuilt = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded %+v, saved %+v", got, want)
	}
}

// TestLoadChecks: a loading walk fails on an image whose size differs
// from the built one and on unconsumed payload, naming the section.
func TestLoadChecks(t *testing.T) {
	w := NewWriter()
	w.Save("p", samplePrims())
	w.Add("short", []byte{1})
	data, _ := w.Finish()
	f, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	err = f.Load("p", &prims{imgBuilt: 5})
	if err == nil || !strings.Contains(err.Error(), "image size mismatch") || !strings.Contains(err.Error(), `"p"`) {
		t.Fatalf("Load with a 5-byte image: err = %v", err)
	}
	err = f.Load("short", walkFunc(func(c *Codec) error { return c.Err() }))
	if err == nil || !strings.Contains(err.Error(), "not fully consumed") {
		t.Fatalf("Load consuming nothing: err = %v", err)
	}
}

type walkFunc func(c *Codec) error

func (f walkFunc) WalkState(c *Codec) error { return f(c) }

// TestHugeCountRejected: a corrupt slice or map count must not allocate
// beyond the payload; the walk fails once the payload runs out.
func TestHugeCountRejected(t *testing.T) {
	var e Encoder
	e.U32(1 << 30)
	e.U64(1)
	for _, walk := range []func(c *Codec) int{
		func(c *Codec) int {
			var s []uint64
			Slice(c, &s, c.U64)
			return cap(s)
		},
		func(c *Codec) int {
			var m map[tag]bool
			Map(c, &m, func(_ tag, v bool) bool {
				c.Bool(&v)
				return v
			})
			return len(m)
		},
	} {
		c := &Codec{dec: NewDecoder(e.Bytes())}
		if n := walk(c); n > 8 {
			t.Errorf("walk grew to %d elements", n)
		}
		if c.Err() == nil {
			t.Error("no error on oversized count")
		}
	}
}

func TestMissingSection(t *testing.T) {
	w := NewWriter()
	w.Add("a", []byte{1})
	data, _ := w.Finish()
	f, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Load("nope", samplePrims()); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("Load(nope) err = %v", err)
	}
}

func TestDuplicateSection(t *testing.T) {
	w := NewWriter()
	w.Add("a", []byte{1})
	w.Add("a", []byte{2})
	if _, err := w.Finish(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Finish err = %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read([]byte("not a snapshot at all")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("Read err = %v", err)
	}
	if _, err := Read(nil); err == nil {
		t.Fatal("Read(nil) succeeded")
	}
}

func TestVersionMismatch(t *testing.T) {
	w := NewWriter()
	w.Add("a", []byte{1})
	data, _ := w.Finish()
	// Bump the version field in place.
	binary.LittleEndian.PutUint32(data[len(Magic):], Version+1)
	_, err := Read(data)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Read err = %v, want ErrVersion", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	w := NewWriter()
	w.Add("payload", []byte{1, 2, 3, 4})
	data, _ := w.Finish()
	// Flip a payload bit; the stored CRC no longer matches.
	data[len(data)-5] ^= 0x40
	_, err := Read(data)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") || !strings.Contains(err.Error(), `"payload"`) {
		t.Fatalf("Read err = %v", err)
	}
}

func TestTruncated(t *testing.T) {
	w := NewWriter()
	w.Add("a", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	data, _ := w.Finish()
	for cut := len(Magic) + 4 + 1; cut < len(data); cut++ {
		if _, err := Read(data[:cut]); err == nil {
			t.Fatalf("Read of %d/%d bytes succeeded", cut, len(data))
		}
	}
}

func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // too short: sets sticky error
	if d.Err() == nil {
		t.Fatal("no sticky error after short read")
	}
	// Later reads return zero values without panicking.
	if d.U32() != 0 || d.U8() != 0 || d.Bytes32() != nil || d.U32s() != nil {
		t.Error("reads after error returned non-zero")
	}
	if err := d.Finish(); err == nil {
		t.Error("Finish nil after sticky error")
	}
}

func TestDecoderUnconsumed(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3, 4, 5})
	_ = d.U32()
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "not fully consumed") {
		t.Fatalf("Finish err = %v", err)
	}
}

func TestHugeU32sRejected(t *testing.T) {
	// A corrupted element count must not allocate unbounded memory.
	var e Encoder
	e.U32(1 << 30)
	d := NewDecoder(e.Bytes())
	if v := d.U32s(); v != nil {
		t.Fatalf("U32s returned %d elems", len(v))
	}
	if d.Err() == nil {
		t.Fatal("no error on oversized count")
	}
}
