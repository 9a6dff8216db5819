package octree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"qarv/internal/synthetic"
)

// wireDigests pins the encoded bytes: the SHA-256 of SerializeBytes and
// SerializeWithColorsBytes at every depth of smoothCloud(3000, seed)
// built to depth 9. A digest that changes is a wire-format change, which
// every deployed decoder would have to follow.
var wireDigests = []struct {
	seed           uint64
	depth          int
	geometry, full string
}{
	{7, 1, "19b7c5ac5c3630ce79b0a518029ce85792e378f78ae5e4d44f8743ea843559b3", "8aa19f45a29f7c804558f80ed7ea11f6a948d7743c4990601f5550695de0d2ff"},
	{7, 2, "8634ceb2dc459d9095bf5aa02df03da9eb26a7b4557f9888afd63e95d7bef449", "7ac67cd64d224708dffa15c93442aaad6c62a33bd2b809c2df958964a51ad4b5"},
	{7, 3, "6d39d40aee0c23f3fb5eb5d6d2e1c518c1ba4de31618b5f330ee1cbfb983f197", "902f4ce7508c1b4002f60706b05903f5bc9453165a7dd3f84107955faafc5150"},
	{7, 4, "6aa7597d20319d57b9b34d2fb58848cd218875f18aff6197cfdc1cd43aa1d167", "4607e6bd2ce409321aef6a13ae12eb74e217593e62437bf3e555e47cb3866bbb"},
	{7, 5, "bb90e4248069bd3df19ff2627d3e7d9d9d4375448e43d4f579e5a257cc3040ea", "fef02b7f4342b8093332949af1cef4ca75c2969db3be728f2cf0eb3e383db99c"},
	{7, 6, "83baccf91ad4c7678ec7a523eefe8ad280133e2aa51c8205b3bc56f5c55f1e5d", "88e42652bc84a5d1baf68154f907dd7a83dc2e538f547ac5a0759aa7de8cd99d"},
	{7, 7, "c43af60fda43742797e686941834c7186fc5b7c7b1c9238249b96f66b95304cb", "2cd751b95d16295bbfec038d6dee45a79eaaa8e63d0b218157313f218ce6aa57"},
	{7, 8, "71f865e80bcc2994c8c24a0aea928e65f181a397f5ac4ab7a53163d75164a19b", "756be57eb5768834daf82322586deb1b16eb3cf90aa7c4dd6cb512861e71bc8c"},
	{7, 9, "0129aa6d7832e7cfbeee538f426c1d0bacfa9e5d294406194793eb42a477a645", "b89caf6113da6b1f1042ecf2b43411fbd400f5aa1d950b9fa032d68e100be212"},
	{19, 1, "490946d8b901e1fad0ea8230e1052cb68558dba053a423ef955ab40e8bad67dc", "8a4cc7562d1f0e785d404d4bce26d0eff268a9d687bc70ca2fe3b55ca8aa50c2"},
	{19, 2, "19c14ec700c9d05cd73ee5e85cbb67fd3f7db157054fdcce36dec7cf1a186eb4", "0d586d93ed3c2593030df2948c00a0f5104e5aedbb5f3f67463aa9a52a483a80"},
	{19, 3, "76474c3071785c934ec078175128572b85e89ef289b4ba8eb173ee348bf8a065", "e4ed025364aa7b49f9259223a41af90535833d779b9408c084369f622c9b9c72"},
	{19, 4, "c781f5ae515a112c93181931d7bc50d613af0c357575fef77db9d1b8d43e9e91", "c7589e111813670e318ff6ebe42258d79ab9a8da6309877a0435eca46ec3c3dd"},
	{19, 5, "23fed981d842a66340d06c96f6bc7de133d5a072dbfcc69155506ec99fd1353e", "2a69b34b2f1a1853ec2d3ede5c2afb865a5c24fc9b95649b31d6112aa9d5b1be"},
	{19, 6, "1b795c83da7f69d248092fad81c05b7bed9a43d4b082f30d1b5581645e6101f9", "9f5036b7be19892d05e5e0d05b0515643e09fce7c89d6d3abef071b531c789aa"},
	{19, 7, "c1d27a20dba74458b65db451597bdc2d529a3cbf207b1459383f50b7af5d87eb", "5c2467e5a9830105e67d185d947afe5f4460e00f358b94165177835614890eea"},
	{19, 8, "5b8c6574ea8433f95b2b088e090b08971f7ef8ca9abb27633c514120fcb2c4b5", "cbc43712dff1047153c5aff5fec9034343cceedc41e40bd337319603e9511ec8"},
	{19, 9, "6585bb200fc51dbb2d0609d77566057bd20a2f0bfb71ac86a39855c9d338a5c9", "7bfa3af184427b73abaa35328904ffdf93c2ee0134225c15c505009a55225dc4"},
}

func TestWireBytesPinned(t *testing.T) {
	trees := map[uint64]*Octree{}
	for _, want := range wireDigests {
		o := trees[want.seed]
		if o == nil {
			var err error
			if o, err = Build(smoothCloud(3000, want.seed), 9); err != nil {
				t.Fatal(err)
			}
			trees[want.seed] = o
		}
		geo, err := o.SerializeBytes(want.depth)
		if err != nil {
			t.Fatal(err)
		}
		full, err := o.SerializeWithColorsBytes(want.depth)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(geo); got != want.geometry {
			t.Errorf("seed %d depth %d: geometry digest %s, want %s", want.seed, want.depth, got, want.geometry)
		}
		if got := sha256Hex(full); got != want.full {
			t.Errorf("seed %d depth %d: colored digest %s, want %s", want.seed, want.depth, got, want.full)
		}
	}
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// BenchmarkDeserializeWithColors times the edge's per-frame validation
// decode at the depths the live stream ships, over the edge-live capture.
func BenchmarkDeserializeWithColors(b *testing.B) {
	benchDecode(b, true, func(data []byte) error {
		_, err := DeserializeWithColorsBytes(data)
		return err
	})
}

// BenchmarkDeserializeBytes times the geometry half of the same decode,
// so the geometry/color split shows beside BenchmarkDeserializeWithColors.
func BenchmarkDeserializeBytes(b *testing.B) {
	benchDecode(b, false, func(data []byte) error {
		_, err := DeserializeBytes(data)
		return err
	})
}

// benchDecode times decode on the streams the edge validates: the
// 120k-sample longdress capture at depth 10, serialized at depths 6-9
// with or without colors. Its colors pack far tighter than smoothCloud's,
// like live frames.
func benchDecode(b *testing.B, withColors bool, decode func([]byte) error) {
	ch, err := synthetic.ByName("longdress")
	if err != nil {
		b.Fatal(err)
	}
	cloud, err := synthetic.Generate(synthetic.Config{
		Character: ch, SamplesTarget: 120_000, CaptureDepth: 10, Seed: 1,
	}, synthetic.Pose{})
	if err != nil {
		b.Fatal(err)
	}
	o, err := Build(cloud, 10)
	if err != nil {
		b.Fatal(err)
	}
	for d := 6; d <= 9; d++ {
		var data []byte
		if withColors {
			data, err = o.SerializeWithColorsBytes(d)
		} else {
			data, err = o.SerializeBytes(d)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
