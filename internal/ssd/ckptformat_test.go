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
			"658da792121e495d4bd19b7e105d3a1fd4c5cb6b51ee12e530a85b94d5951998",
			"f7c9083a863907ec59774827b709602d51a4a97b20734760541cb20d178ea35d"}},
		{"DFTL", tinyConfig(SchemeDFTL), false, [2]string{
			"fafa383ec6e0792cdc601912828af8338aa5bfd13e8f86789d6561d2277c1135",
			"ad71efe154863b4de0ab34a4641afbb3cf829978bbcfa567baea4882d397a7aa"}},
		{"FAST", tinyConfig(SchemeFAST), false, [2]string{
			"17eef24fe296a48acd1fcac78ba25f00a3266e28aa64939826b923e9baa0e049",
			"a53c05d91d91524a1363c89fbdcfe6923518a34b8b5d7c43df38edb6801690ed"}},
		{"BAST", tinyConfig(SchemeBAST), false, [2]string{
			"3f44267c8ba607344704e0c6c2b38d929982fbd8d05beae7cf1515c4799a05f1",
			"688a11d4571419fdc1b6d9e5002f8a1c6f6930dbd8fa9e1147569cd370276243"}},
		{"PureMap", tinyConfig(SchemePureMap), false, [2]string{
			"27a5866fe97ac7a4ce8e6aa82cbb7c3aebe5236f832af680051c557826bb1ff0",
			"0ca6d5ba8203493448b9c52a74af9ddac253a0c9059afbbbe5162ab5551020da"}},
		{"PureMap-striped", tinyConfig(SchemePureMapStriped), false, [2]string{
			"fc66e080b79d5cef521f5e91faa31c3853f510de197505d46dc5e12a9158d337",
			"5bae2166e4ff200e6ec9d3f43c18da7940cae9f647e2304585ce07310e5885a2"}},
		{"DLOOP-learned", learned, false, [2]string{
			"0a0414b0b2f0daba39fd1f48d06f7f41628c113aec71a078cef54855187aa79d",
			"98cc45cdf6d51248d1d312f8527274635d92b7a1bb6c33718b5457748683fa23"}},
		{"DLOOP-mq2", mqConfig(SchemeDLOOP, tiny8Geometry(), 2, ""), false, [2]string{
			"cf0a333ed9241911392996fced9766100dc3f71481a8d27fa339a5ece418fa58",
			"b16a3d78cfeec9b322110835e50a29985122118f1a813a0b73a4442c99f5a76a"}},
		{"DLOOP-buffer-series", buffered, true, [2]string{
			"16e4d50b68766da6573d9ba4f8e03e075d6fce600b30fe952158b3f299283c75",
			"a1b7f253a3ed3b469ae94ce1eb03d639590e8e34595da099a64a1751cbe601b1"}},
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
