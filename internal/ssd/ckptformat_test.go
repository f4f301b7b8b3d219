package ssd

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dloop/internal/sim"
	"dloop/internal/trace"
)

// TestCheckpointFormatDigest pins the encoded checkpoint format byte for
// byte: the sha256 of the container each controller below encodes, both
// right after preconditioning and after a short measured run, must match
// the recorded digest. Any change to what a checkpoint holds or how it lays
// it out fails here, so existing warm-up cache directories stay valid for
// as long as this test passes unchanged. A deliberate format change bumps
// ckpt.Version and re-records these digests.
func TestCheckpointFormatDigest(t *testing.T) {
	learned := tinyConfig(SchemeDLOOP)
	learned.TranslatePolicy = "learned"
	buffered := tinyConfig(SchemeDLOOP)
	buffered.BufferPages = 16
	cases := []struct {
		name   string
		cfg    Config
		series bool
		want   [2]string // preconditioned, then after 800 requests
	}{
		{"DLOOP", tinyConfig(SchemeDLOOP), false, [2]string{
			"7ceec0aa2f53ff83f85cebcd093c98df7ec12182944ceb5d7b564d7ceaf62035",
			"9b4eab3ee34e055486c53346a827f55eeb8ac61a1c0dc521dc565ca6bf5d71df"}},
		{"DFTL", tinyConfig(SchemeDFTL), false, [2]string{
			"d6e3e29edd376e4dc47b8febc7e753bb667c886e3f925253764817f2c3fa44ec",
			"7cd97a929915b21bc9baf345d74710a641f9da3a0d64e91606c00c0a528cb184"}},
		{"FAST", tinyConfig(SchemeFAST), false, [2]string{
			"b0031562cb563395af8de47bce71d53198722bc3b5a5ad6ddaa42a9d405a984a",
			"e2dc139889dee1f03ee01af537cb97c005e3b30896623e3df6a3edabd41e8696"}},
		{"BAST", tinyConfig(SchemeBAST), false, [2]string{
			"1378441e44185c74b78735571118cbfea0f53be039b36daf08cecb828152dbd9",
			"ffe763de713014e39d0df392da05ee857a7a1e5ce165c65cf377e007278c50ce"}},
		{"PureMap", tinyConfig(SchemePureMap), false, [2]string{
			"c3960ff7d38060e580fb29f5bed6a96f42b043767d5b59f4f486d0f8d7fcb28e",
			"ca329299fe1d40efd19fae55f65594a5e38e3fa2b83a6cca8b479848fb27db1b"}},
		{"PureMap-striped", tinyConfig(SchemePureMapStriped), false, [2]string{
			"469dd26d1c4a4aa2660e7e7d1c8ff6c4802e80eec3acb08901b2af647ccb9713",
			"20d8fae19c3684ac9e3b67412dc3f0e3ca2fdb480adf3870b3b7a5ed4896129e"}},
		{"DLOOP-learned", learned, false, [2]string{
			"065d783288e274ab307bdf7f92e1c419f7708661d4a787a68e594c0c7e78a898",
			"e319689e88a3a8b0e49c6125aa0df864d82cf8d09a95ee025a60234e0f89e397"}},
		{"DLOOP-mq2", mqConfig(SchemeDLOOP, tiny8Geometry(), 2), false, [2]string{
			"336b39de6ef8190490a27a56568b3a892b32f1ff85c071f639d5e846a49f741f",
			"516f4b4636fda9e78f09a1d8bebb97ebe5cfb312eaf0273b0812af111b538a90"}},
		{"DLOOP-buffer-series", buffered, true, [2]string{
			"24826e12074766ca095f20aba149f8609754747f81f5e2939fef1f7cc2af6848",
			"74f95be29129eb0ba522c0af09153b24ba421257533df7635a93bf09e200a35d"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			if tc.series {
				if err := c.EnableTimeSeries(1 * sim.Second); err != nil {
					t.Fatal(err)
				}
			}
			preconditionTiny(t, c)
			w := tinyWorkload(t, c, 800, 41)
			for i, want := range tc.want {
				if i == 1 {
					if _, err := c.Run(trace.NewSliceReader(w)); err != nil {
						t.Fatal(err)
					}
				}
				sum := sha256.Sum256(encodedCheckpoint(t, c))
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("state %d: checkpoint digest %s, want %s", i, got, want)
				}
			}
		})
	}
}
