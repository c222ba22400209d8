package accel

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"dmx/internal/sim"
	"dmx/internal/tensor"
)

// NewVideoDecode builds the video-codec hard-IP of Video Surveillance.
// The functional stand-in decodes a run-length-encoded YUV stream: the
// bitstream is a sequence of (count:u16, y:u8, u:u8, v:u8) records whose
// counts sum to the frame's pixel count. That exercises a real
// decompress-style data dependency while staying far simpler than H.264 —
// what matters downstream is the decoded pixel tensor's size and layout.
//
// Input: "bitstream" uint8[n]. Output: "yuv" uint8[pixels, 3].
func NewVideoDecode(pixels int) *Spec {
	return &Spec{
		Name:           "video-decode",
		ThroughputBPS:  1.5e9, // hard-IP codec, ~2 HD frames per few ms
		Speedup:        2.5,   // hard IP gains the least over software decode (Fig. 11)
		PowerW:         12,
		LaunchOverhead: 15 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			bs, err := getIn("video-decode", in, "bitstream")
			if err != nil {
				return nil, err
			}
			raw := bs.Contiguous().Bytes()
			if len(raw)%5 != 0 {
				return nil, fmt.Errorf("accel: video-decode: bitstream length %d not a whole number of records", len(raw))
			}
			out := tensor.New(tensor.Uint8, pixels, 3)
			p := 0
			for off := 0; off+5 <= len(raw); off += 5 {
				count := int(binary.LittleEndian.Uint16(raw[off:]))
				y, u, v := raw[off+2], raw[off+3], raw[off+4]
				for i := 0; i < count; i++ {
					if p >= pixels {
						return nil, fmt.Errorf("accel: video-decode: stream decodes past %d pixels", pixels)
					}
					out.Set(float64(y), p, 0)
					out.Set(float64(u), p, 1)
					out.Set(float64(v), p, 2)
					p++
				}
			}
			if p != pixels {
				return nil, fmt.Errorf("accel: video-decode: stream decoded %d of %d pixels", p, pixels)
			}
			return map[string]*tensor.Tensor{"yuv": out}, nil
		},
	}
}

// EncodeRLE encodes a whole decoded frame into the bitstream
// NewVideoDecode accepts: consecutive equal YUV pixels collapse into one
// record, and a run longer than 65 535 pixels (the u16 count) splits
// across records. It is the reference RLEWriter is tested against; the
// workload generator streams through RLEWriter instead of staging the
// frame. yuv must be a Uint8 [pixels, 3] tensor, any view layout;
// EncodeRLE panics on any other dtype or shape, since a decoded frame is
// always Uint8 and there is no lossless byte for a wider element.
func EncodeRLE(yuv *tensor.Tensor) []byte {
	if yuv.DType() != tensor.Uint8 || yuv.Rank() != 2 || yuv.Dim(1) != 3 {
		panic(fmt.Sprintf("accel: EncodeRLE: want a uint8 [pixels 3] tensor, got %s %v", yuv.DType(), yuv.Shape()))
	}
	px := yuv.Contiguous().Bytes()
	var out []byte
	for i := 0; i < len(px); {
		y, u, v := px[i], px[i+1], px[i+2]
		run := 1
		for j := i + 3; j < len(px) && run < 65535 && px[j] == y && px[j+1] == u && px[j+2] == v; j += 3 {
			run++
		}
		out = append(out, byte(run), byte(run>>8), y, u, v)
		i += 3 * run
	}
	return out
}

// RLEWriter run-length encodes pixels as they are drawn, writing the
// same bitstream EncodeRLE makes of the finished frame, one 5-byte
// record per Write, so no frame is ever held in memory. Write errors
// are sticky: after the first nothing more is written, and Close
// returns it.
type RLEWriter struct {
	w   io.Writer
	rec [5]byte // the open run's record: count (u16 LE), y, u, v
	run int
	err error
}

// NewRLEWriter returns an encoder writing its bitstream to w.
func NewRLEWriter(w io.Writer) *RLEWriter { return &RLEWriter{w: w} }

// Pixel appends one pixel: it extends the open run, or writes that run's
// record and opens a new one when the colour changes or the count is at
// its 65 535 cap.
func (e *RLEWriter) Pixel(y, u, v byte) {
	if e.run > 0 && e.run < 65535 && y == e.rec[2] && u == e.rec[3] && v == e.rec[4] {
		e.run++
		return
	}
	e.flush()
	e.rec[2], e.rec[3], e.rec[4] = y, u, v
	e.run = 1
}

// Close writes the open run's record and returns the first write error.
func (e *RLEWriter) Close() error {
	e.flush()
	e.run = 0
	return e.err
}

func (e *RLEWriter) flush() {
	if e.run == 0 || e.err != nil {
		return
	}
	e.rec[0], e.rec[1] = byte(e.run), byte(e.run>>8)
	_, e.err = e.w.Write(e.rec[:])
}

// NewObjectDetect builds the DNN object-detection accelerator: a seeded
// linear detection head over the quantized channel-first frame, scoring
// `classes` object categories per spatial region.
//
// Input: "nchw" int8[3, pixels]. Output: "detections"
// float32[regions, classes].
func NewObjectDetect(pixels, regions, classes int, seed int64) (*Spec, error) {
	if pixels%regions != 0 {
		return nil, fmt.Errorf("accel: object-detect: %d pixels not divisible into %d regions", pixels, regions)
	}
	regionPix := pixels / regions
	rng := rand.New(rand.NewSource(seed))
	// Per-class weights over (channel, position-in-region).
	w := make([][]float64, classes)
	for c := range w {
		w[c] = make([]float64, 3*regionPix)
		for i := range w[c] {
			w[c][i] = rng.NormFloat64() / math.Sqrt(float64(3*regionPix))
		}
	}
	return &Spec{
		Name:           "object-detect",
		ThroughputBPS:  0.8e9, // DNN inference over full frames
		Speedup:        9.0,
		PowerW:         30,
		LaunchOverhead: 20 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			x, err := getIn("object-detect", in, "nchw")
			if err != nil {
				return nil, err
			}
			if x.Dim(0) != 3 || x.Dim(1) != pixels {
				return nil, fmt.Errorf("accel: object-detect: input shape %v, want [3 %d]", x.Shape(), pixels)
			}
			det := tensor.New(tensor.Float32, regions, classes)
			for r := 0; r < regions; r++ {
				for c := 0; c < classes; c++ {
					var acc float64
					for ch := 0; ch < 3; ch++ {
						base := r * regionPix
						for i := 0; i < regionPix; i++ {
							acc += x.At(ch, base+i) / 127.0 * w[c][ch*regionPix+i]
						}
					}
					det.Set(sigmoid(acc), r, c)
				}
			}
			return map[string]*tensor.Tensor{"detections": det}, nil
		},
	}, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
