package gsm

import (
	"math"
	"testing"
	"testing/quick"
)

// encodeDecode runs a full codec pass over synthetic speech.
func encodeDecode(t *testing.T, nFrames int, seed uint64) (ref, out []int16) {
	t.Helper()
	pcm := Synth(nFrames*FrameSamples, seed)
	enc := NewEncoder()
	dec := NewDecoder()
	out = make([]int16, 0, len(pcm))
	for f := 0; f < nFrames; f++ {
		p := enc.Encode(pcm[f*FrameSamples : (f+1)*FrameSamples])
		out = append(out, dec.Decode(p)...)
	}
	return pcm, out
}

func TestCodecReconstructionQuality(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ref, out := encodeDecode(t, 20, seed)
		snr := SNR(ref, out, FrameSamples) // skip warm-up frame
		if snr < 4 {
			t.Errorf("seed %d: SNR = %.1f dB, want ≥ 4 dB", seed, snr)
		}
	}
}

func TestCodecSilence(t *testing.T) {
	enc := NewEncoder()
	dec := NewDecoder()
	silence := make([]int16, FrameSamples)
	var peak int16
	for f := 0; f < 4; f++ {
		out := dec.Decode(enc.Encode(silence))
		for _, v := range out {
			if v < 0 {
				v = -v
			}
			if v > peak {
				peak = v
			}
		}
	}
	if peak > 300 {
		t.Errorf("silence decodes with peak %d, want near-silence", peak)
	}
}

func TestCodecDeterminism(t *testing.T) {
	_, a := encodeDecode(t, 5, 3)
	_, b := encodeDecode(t, 5, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decode diverges at %d", i)
		}
	}
}

func TestEncodePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for wrong frame length")
		}
	}()
	NewEncoder().Encode(make([]int16, 10))
}

func TestParamsWithinFieldRanges(t *testing.T) {
	pcm := Synth(20*FrameSamples, 9)
	enc := NewEncoder()
	for f := 0; f < 20; f++ {
		p := enc.Encode(pcm[f*FrameSamples : (f+1)*FrameSamples])
		for i, q := range p.LAR {
			if q < larMin(i) || q > larMax(i) {
				t.Fatalf("frame %d: LAR[%d] = %d out of range", f, i, q)
			}
		}
		for sf := 0; sf < Subframes; sf++ {
			if p.Lag[sf] < MinLag || p.Lag[sf] > MaxLag {
				t.Fatalf("lag out of range: %d", p.Lag[sf])
			}
			if p.Gain[sf] < 0 || p.Gain[sf] > 3 {
				t.Fatalf("gain out of range: %d", p.Gain[sf])
			}
			if p.Grid[sf] < 0 || p.Grid[sf] > 3 {
				t.Fatalf("grid out of range: %d", p.Grid[sf])
			}
			if p.Xmax[sf] < 0 || p.Xmax[sf] > 63 {
				t.Fatalf("xmax out of range: %d", p.Xmax[sf])
			}
			for _, q := range p.X[sf] {
				if q < -4 || q > 3 {
					t.Fatalf("pulse out of range: %d", q)
				}
			}
		}
	}
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	prop := func(lar [8]int8, lag [4]uint8, gain, grid [4]uint8, xmax [4]uint8, pulses [4][13]int8) bool {
		var p Params
		for i := range p.LAR {
			p.LAR[i] = clampInt(int(lar[i]), larMin(i), larMax(i))
		}
		for sf := 0; sf < Subframes; sf++ {
			p.Lag[sf] = MinLag + int(lag[sf])%(MaxLag-MinLag+1)
			p.Gain[sf] = int(gain[sf]) % 4
			p.Grid[sf] = int(grid[sf]) % 4
			p.Xmax[sf] = int(xmax[sf]) % 64
			for i := range p.X[sf] {
				p.X[sf][i] = clampInt(int(pulses[sf][i]), -4, 3)
			}
		}
		buf := Pack(p)
		got, err := Unpack(buf[:])
		return err == nil && got == p
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPackSignatureAndSize(t *testing.T) {
	buf := Pack(Params{})
	if len(buf) != FrameBytes {
		t.Fatalf("frame = %d bytes, want %d", len(buf), FrameBytes)
	}
	if buf[0]>>4 != Signature {
		t.Errorf("signature nibble = %#x", buf[0]>>4)
	}
	if FrameBits+4 != FrameBytes*8 {
		t.Errorf("bit budget wrong: %d + 4 ≠ %d×8", FrameBits, FrameBytes)
	}
}

func TestUnpackErrors(t *testing.T) {
	if _, err := Unpack(make([]byte, 10)); err == nil {
		t.Error("short frame accepted")
	}
	bad := Pack(Params{})
	bad[0] = 0x00 // clobber signature
	if _, err := Unpack(bad[:]); err == nil {
		t.Error("bad signature accepted")
	}
}

func TestDecoderRobustToCorruptFrames(t *testing.T) {
	// Any bit pattern with a valid signature must decode without panic
	// and produce in-range PCM (parameters are clamped).
	dec := NewDecoder()
	rng := uint64(99)
	for trial := 0; trial < 50; trial++ {
		var buf [FrameBytes]byte
		for i := range buf {
			rng = rng*6364136223846793005 + 1442695040888963407
			buf[i] = byte(rng >> 40)
		}
		buf[0] = buf[0]&0x0F | Signature<<4
		p, err := Unpack(buf[:])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		out := dec.Decode(p)
		if len(out) != FrameSamples {
			t.Fatalf("trial %d: %d samples", trial, len(out))
		}
	}
}

func TestAnalysisFilterWhitens(t *testing.T) {
	// The analysis lattice must *reduce* energy on strongly correlated
	// input — this pins the reflection-coefficient sign convention.
	pcm := Synth(4*FrameSamples, 5)
	var s [FrameSamples]float64
	for i := range s {
		s[i] = float64(pcm[FrameSamples+i]) // skip warm-up
	}
	acf := autocorrelate(s[:], 9)
	refl := schur(acf)

	var e Encoder
	var inE, outE float64
	for _, v := range s {
		d := e.analysisLattice(v, refl)
		inE += v * v
		outE += d * d
	}
	if outE >= inE {
		t.Errorf("analysis filter amplifies: in=%.3g out=%.3g (sign convention wrong?)", inE, outE)
	}
}

func TestSchurStability(t *testing.T) {
	// All reflection coefficients must lie strictly inside (−1, 1) for
	// arbitrary autocorrelation inputs derived from real signals.
	prop := func(raw [64]int16) bool {
		s := make([]float64, len(raw))
		for i, v := range raw {
			s[i] = float64(v)
		}
		acf := autocorrelate(s, 9)
		refl := schur(acf)
		for _, r := range refl {
			if r <= -1 || r >= 1 || math.IsNaN(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSchurZeroInput(t *testing.T) {
	refl := schur(make([]float64, 9))
	for i, r := range refl {
		if r != 0 {
			t.Errorf("refl[%d] = %v for silence", i, r)
		}
	}
}

func TestLARRoundTrip(t *testing.T) {
	// larToRefl(reflToLAR(r)) ≈ r across the legal range.
	for r := -0.99; r <= 0.99; r += 0.01 {
		lar := reflToLAR([8]float64{r})
		back := larToRefl(lar[0])
		if math.Abs(back-r) > 0.02 {
			t.Errorf("r=%.3f → LAR=%.3f → %.3f", r, lar[0], back)
		}
	}
}

func TestXmaxQuantizerMonotone(t *testing.T) {
	prev := -1
	for x := 1.0; x < 60000; x *= 1.3 {
		idx := quantizeXmax(x)
		if idx < prev {
			t.Fatalf("quantizer not monotone at %.0f", x)
		}
		prev = idx
		dec := decodeXmax(idx)
		if dec <= 0 || math.Abs(math.Log2(dec/x)) > 0.5 {
			t.Errorf("xmax %.0f decodes to %.0f (idx %d)", x, dec, idx)
		}
	}
	if quantizeXmax(0) != 0 {
		t.Error("quantizeXmax(0) != 0")
	}
	if d := decodeXmax(0); d <= 0 || d > 2 {
		t.Errorf("decodeXmax(0) = %v, want smallest positive level", d)
	}
}

func TestSynthDeterministicAndBounded(t *testing.T) {
	a := Synth(1000, 5)
	b := Synth(1000, 5)
	c := Synth(1000, 6)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed differs")
	}
	if !diff {
		t.Error("different seeds identical")
	}
	var energy float64
	for _, v := range a {
		energy += float64(v) * float64(v)
	}
	if energy == 0 {
		t.Error("silent synth")
	}
}

func TestSNRHelper(t *testing.T) {
	a := []int16{100, 200, 300}
	if got := SNR(a, a, 0); !math.IsInf(got, 1) {
		t.Errorf("identical SNR = %v", got)
	}
	if got := SNR(a, []int16{0, 0, 0}, 0); got != 0 {
		t.Errorf("all-noise SNR = %v, want 0", got)
	}
	if got := SNR(a, a[:2], 0); !math.IsInf(got, -1) {
		t.Errorf("length mismatch = %v", got)
	}
}

func TestLARZonesWeights(t *testing.T) {
	prev := [8]float64{0.4, 0, 0, 0, 0, 0, 0, 0}
	cur := [8]float64{0.0, 0, 0, 0, 0, 0, 0, 0}
	rpz := larZones(prev, cur)
	// LAR < 0.675 maps to refl identically, so zone mixes are visible
	// directly: 0.3, 0.2, 0.1, 0.0 on coefficient 0.
	want := []float64{0.3, 0.2, 0.1, 0.0}
	for z, w := range want {
		if diff := rpz[z][0] - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("zone %d refl = %v, want %v", z, rpz[z][0], w)
		}
	}
}

func TestZoneOfBoundaries(t *testing.T) {
	cases := map[int]int{0: 0, 12: 0, 13: 1, 26: 1, 27: 2, 39: 2, 40: 3, 159: 3}
	for k, want := range cases {
		if got := zoneOf(k); got != want {
			t.Errorf("zoneOf(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestInterpolationSmoothsFrameTransition(t *testing.T) {
	// Two frames with very different spectra: the decoder's first-zone
	// coefficients must mix the previous frame's LARs, so decoding the
	// same params fresh (no history) differs in the first 40 samples.
	pcm := Synth(2*FrameSamples, 11)
	enc := NewEncoder()
	p1 := enc.Encode(pcm[:FrameSamples])
	p2 := enc.Encode(pcm[FrameSamples:])

	warm := NewDecoder()
	warm.Decode(p1)
	withHistory := warm.Decode(p2)

	cold := NewDecoder()
	noHistory := cold.Decode(p2)

	diffEarly := 0
	for k := 0; k < 40; k++ {
		if withHistory[k] != noHistory[k] {
			diffEarly++
		}
	}
	if diffEarly == 0 {
		t.Error("zone interpolation has no effect across frames")
	}
}

// BenchmarkEncode prices one native codec frame.
func BenchmarkEncode(b *testing.B) {
	pcm := Synth(FrameSamples*8, 42)
	enc := NewEncoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := (i % 8) * FrameSamples
		enc.Encode(pcm[f : f+FrameSamples])
	}
}
