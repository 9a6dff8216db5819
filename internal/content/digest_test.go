package content

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"qarv/internal/synthetic"
)

// profileDigest hashes a profile's occupancy, byte and PSNR ladders, the
// PSNR values by their bits, so two builds match only bit for bit.
func profileDigest(p *Profile) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range p.Points() {
		put(uint64(v))
	}
	for _, v := range p.Bytes() {
		put(uint64(v))
	}
	for _, v := range p.PSNR() {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBuildDigestPinned pins every preset's geometry and view ladders at
// a small capture (20k samples, depth 8), plus longdress at the default
// configuration, to digests of their exact values. Capture, octree, byte
// and PSNR code may get faster; none of it may move a profile bit.
func TestBuildDigestPinned(t *testing.T) {
	want := map[string]string{
		"longdress/20000/8/geometry":   "7efa56c476a527c4",
		"longdress/20000/8/view":       "f6544e8c92f7971d",
		"loot/20000/8/geometry":        "2518c45e8b04ae81",
		"loot/20000/8/view":            "24401b9bad32ec92",
		"redandblack/20000/8/geometry": "3ea29cd8cdf0c8cb",
		"redandblack/20000/8/view":     "cef46cffc67cc615",
		"soldier/20000/8/geometry":     "dbfd39e0d696d66f",
		"soldier/20000/8/view":         "76b227ed7faca699",
		"longdress/120000/10/geometry": "c37064fa3aa9411b",
		"longdress/120000/10/view":     "b6255600a474bba6",
	}
	var cfgs []Config
	for _, ch := range synthetic.Presets() {
		cfgs = append(cfgs, Config{Asset: ch.Name, Samples: 20_000, CaptureDepth: 8})
	}
	cfgs = append(cfgs, Config{Asset: "longdress"})
	for _, cfg := range cfgs {
		for _, q := range []Quality{QualityGeometry, QualityView} {
			cfg.Quality = q
			r := cfg.withDefaults()
			key := fmt.Sprintf("%s/%d/%d/%s", r.Asset, r.Samples, r.CaptureDepth, q)
			p, err := Build(cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := profileDigest(p); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}
