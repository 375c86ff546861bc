package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// wireGoldens pins the SHA-256 of the JSON wire bytes: every registry
// entry's spec at Quick and Paper scale (key "<name>/<scale>"), and
// configs that between them put every enum name and every scheme field
// on the wire together with a tuner override, the bursty schedule and
// the shard fields (key "config/<name>", plus "fingerprint/<name>" for
// the content address).
// The fingerprints that key the result cache are hashes of these
// bytes, so a codec change that moves them must show up here, even when
// it round-trips consistently.
var wireGoldens = map[string]string{
	"config/default":            "1a30a0b6dff12f52ac2ad4bb3c6cff9ff2b90ee5a5d850567ad34266c010dd12",
	"config/enums-a":            "29d71efa9fcf0da247c96e196b84fb992c1ddb85f20837c3c1bc3353d5af5ab7",
	"config/enums-b":            "a85380ddef237a9dfd4a3c4ee5a021e9658d8e78104bfb668aa2b3da56544bfa",
	"config/scheme-busyvc":      "8f18fcaa7a375cab81845d9108b1df3bd33d1c56386b8da8c662969bff097fd5",
	"config/scheme-notify":      "cb039f495381817e3dc6080396fcebd748f1ec9c7122d08b36580e19f6eb1fc4",
	"config/scheme-static":      "cc1d9d64fead9d86b70d46169e4a6ecb9441386342887b4ffc33915cdd593334",
	"ext1/paper":                "126030de849e059fe475228b27d0f1a548645861cb0ee558b32948c4e52b7cab",
	"ext1/quick":                "d024bdc923acee7510d12f535a0648d0d8980ecdc77c4346b5b29a48602a6bd5",
	"ext10/paper":               "b656dd413a5631e074dd33c0093ec9be07083e5b6158e2b3aa3c4e913cb23e6f",
	"ext10/quick":               "986404b2636586fd2e77dd4e1e73838cfbe29060280476fd5976a7927f75c141",
	"ext11/paper":               "78316573be10b278d1dc5797298f002aaf84f8b61a9c5391dcb798533ca86481",
	"ext11/quick":               "5928aef151781ae6b03340ff94bed665dcdcd4b9d2c2f42f5ca89bdd6d9c9b85",
	"ext12/paper":               "0a30e6a090fbf236425ad17507d06e1f1259f5fd4e1ad79fc3166d9de4cde112",
	"ext12/quick":               "6fa79c3fcbd6dd6099c803f02bf17d329c32c02648569d16a155de4b0e29341b",
	"ext13/paper":               "21090eef39f90ea26b90eec40341f767687d3d4eba74b1f4cee0232494be30e6",
	"ext13/quick":               "08ab34532694ab59eeed38ca0f2c988df9d725c011d000976e97ad7ec23599a2",
	"ext14/paper":               "cb6da182213ed0863e534669ec4e13b349eff3265d0d0c4e69adf18cd091e511",
	"ext14/quick":               "c2be6c312e64e54694bae116b95b5cc2e264c85a80a9b9291614f7d9e7e81532",
	"ext2/paper":                "38f97c5242a75b2993f47898b0018d8ca72bc62b68895b3a23b342bfefa76d3c",
	"ext2/quick":                "06899b1f27ef5e2820f1019ff6a24e43e4929e75df0f05a2d9291e9301ea1279",
	"ext3/paper":                "54b078ee4a637c12b1be2aa40bc69160a6947716413c5bc0f15140204e3cc3f6",
	"ext3/quick":                "97010875696a8164dae30f97bad4c837cd5e6d2509fdf914b16ca7a82227539f",
	"ext4/paper":                "b7b004151cb26f6c862d497595543f6fcb80ff1c4b8c78bfc3e356f5204f7511",
	"ext4/quick":                "4b82baaf3977d8c2a2cb02f0f8048d34438e8f6d450139b4ede5314379309cbe",
	"ext5/paper":                "ac882b1e2a7a27f0d4831b8d61426d4d02c5c72470062f40be4f391e5bd12301",
	"ext5/quick":                "2fe0843c2b905413c52ea1d8056c8c4355407c1024093fc36cb00f9b61540c43",
	"ext6/paper":                "f33de9bceab0c7896eb777c9d1d15c10df486e4bb67c294988bb86e29877ff41",
	"ext6/quick":                "5ecc55b4f8d8e2200784a8a5f2c4c72ee8f675c98ee1d3a06eca481ea67037d7",
	"ext7/paper":                "eabf7b61bd2aeeae0344cd4c58bdd45c0a18707dcd45a27e1e34837c333f75fe",
	"ext7/quick":                "b016507c1e9fcb561334c20aa815798ba7417138648711080b73185fe531a6f9",
	"ext8/paper":                "73d3cd00ee17e8a81206525b94a288cd2d152f5ed05579bab7031c660b4a2234",
	"ext8/quick":                "5cc5b8a5aa50cc580ec43037de78b71830ef594e2109fac45fe3cb2030279cdf",
	"ext9/paper":                "0e0c9cfe8b9f94abedf2ef3a5510fc6f3b235181892ab81a8d30253cc89855b8",
	"ext9/quick":                "2193a7d02e032c7f7dda3bc7f29e5c91008c78d904608308aff773022480d764",
	"fig1/paper":                "e042cc23222d99bc6f270f1f5dadcdf9ea25633ec5819e94058860c37f033952",
	"fig1/quick":                "36dbaf6692bb5d50e3f09002cebb016d72cc801236654b5c1ebce7e0300f5c4a",
	"fig2/paper":                "066deb6b5ec1ab9af3d928bfd3934b9443b74db255906d5cc483719a9ba794e5",
	"fig2/quick":                "deb572db82a6d0d7a52e29d446ae30aa2cc205b3092d3cc1d933e3c3052810a7",
	"fig3/paper":                "30416feb672daad0cb400e84fa4ca867d9a287d4f21c7cd74077122ebd771d41",
	"fig3/quick":                "15f7775136f7e460181478338a00f5459fbdddb4e63338c4fcb4bae4de181b67",
	"fig4/paper":                "8bed33c642fa6704da47dc1757d786a27dfb19a086ff0c290d17508e5d448546",
	"fig4/quick":                "8b4bf4fb7e059bcd8259046b656f442a46eff81f3fd84a36430554b813470cfe",
	"fig5/paper":                "4cfff000f03e84f9e62db70b8a5efb280673b31e318246c890075b60cade9524",
	"fig5/quick":                "11e93af7dd5bc412f72a4d7c60516437601f065ac4a6c95e55fadaea964465bf",
	"fig6/paper":                "04e671f777a35d8220bf703dd2e0f1acdf91a203b6aa474141dfbda56d2dbd36",
	"fig6/quick":                "04e671f777a35d8220bf703dd2e0f1acdf91a203b6aa474141dfbda56d2dbd36",
	"fig7/paper":                "6dd15d4246f35f58abfa5eadf4df9b44f3a339da120036d89ab95a4e6be4461f",
	"fig7/quick":                "d39b95def5a2aabf434b532700bca92f5c771ef1fbc38388cd1166e1c103807d",
	"fingerprint/default":       "1a30a0b6dff12f52ac2ad4bb3c6cff9ff2b90ee5a5d850567ad34266c010dd12",
	"fingerprint/enums-a":       "b23ae7bc68fb96cd731e1051f68371772623fc0f26b50ebc1c0e65b356e01742",
	"fingerprint/enums-b":       "eca590f824810e356b27f41361cee813955b6a2db923173d3055314f36cd9d22",
	"fingerprint/scheme-busyvc": "8f18fcaa7a375cab81845d9108b1df3bd33d1c56386b8da8c662969bff097fd5",
	"fingerprint/scheme-notify": "cb039f495381817e3dc6080396fcebd748f1ec9c7122d08b36580e19f6eb1fc4",
	"fingerprint/scheme-static": "cc1d9d64fead9d86b70d46169e4a6ecb9441386342887b4ffc33915cdd593334",
	"tab1/paper":                "aae177946dc498460e6a60ce2a7c7d75c84546c9ec8ed4183eb366641a206a01",
	"tab1/quick":                "aae177946dc498460e6a60ce2a7c7d75c84546c9ec8ed4183eb366641a206a01",
}

// wireConfigs returns the configs whose encodings wireGoldens pins.
// "enums-a" and "enums-b" together name every non-default value of the
// five wire enums and set every other wire field but the scheme fields
// that neither kind reads, which the "scheme-*" configs set, each on a
// kind that reads it; the default config names the remaining enum
// values.
func wireConfigs() map[string]sim.Config {
	a := sim.NewConfig()
	a.K, a.N = 8, 3
	a.Mode = router.Avoidance
	a.TokenWaitTimeout = 400
	a.SidebandBits = 9
	a.SidebandMechanism = sideband.MetaPacket
	a.DeliveryChannels = 2
	a.Selection = router.FirstPort
	a.Switching = router.CutThrough
	a.BufDepth = a.PacketLength
	a.ScheduleSpec = traffic.PaperBurstySpec(traffic.PaperBurstyOptions{})
	tc := core.DefaultTunerConfig(a.TotalBuffers())
	tc.DecrementFraction = 0.02
	a.Scheme = sim.Scheme{Kind: sim.SelfTuned, Estimator: sim.LastValueEstimator,
		TuningPeriod: 2 * a.GatherDuration(), Tuner: &tc, KeepTrace: true}
	a.ShardWorkers = 4
	a.ShardDispatch = router.DispatchSharded
	a.SampleInterval = 512

	b := sim.NewConfig()
	b.SidebandMechanism = sideband.Piggyback
	b.PiggybackP = 0.6
	b.Selection = router.MostFreeVCs
	b.Pattern = traffic.HotspotKind
	b.Rate = 0.02
	b.Scheme = sim.Scheme{Kind: sim.AIMD, WindowMin: 2, WindowMax: 32, MarkThreshold: 0.5}
	b.ShardWorkers = 2
	b.ShardDispatch = router.DispatchSerial

	configs := map[string]sim.Config{"default": sim.NewConfig(), "enums-a": a, "enums-b": b}
	for name, s := range map[string]sim.Scheme{
		"scheme-static": {Kind: sim.StaticGlobal, StaticThreshold: 250},
		"scheme-busyvc": {Kind: sim.BusyVC, BusyLimit: 2},
		"scheme-notify": {Kind: sim.Notify, Staleness: 128},
	} {
		cfg := sim.NewConfig()
		cfg.Scheme = s
		configs[name] = cfg
	}
	return configs
}

// wireDigests computes every digest wireGoldens pins.
func wireDigests(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, name := range Names() {
		e, _ := Lookup(name)
		for _, sc := range []struct {
			name string
			s    Scale
		}{{"quick", Quick}, {"paper", Paper}} {
			data, err := json.Marshal(e.Spec(sc.s))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, sc.name, err)
			}
			got[name+"/"+sc.name] = sha256Hex(data)
		}
	}
	for name, cfg := range wireConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %s: %v", name, err)
		}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("config %s: %v", name, err)
		}
		got["config/"+name] = sha256Hex(data)
		fp, err := cfg.Fingerprint()
		if err != nil {
			t.Fatalf("config %s: %v", name, err)
		}
		got["fingerprint/"+name] = fp
	}
	return got
}

// TestWireGolden requires the wire bytes of every registry spec and of
// the enum-covering configs to be byte-identical to the pinned digests.
func TestWireGolden(t *testing.T) {
	got := wireDigests(t)
	keys := make([]string, 0, len(got)+len(wireGoldens))
	for k := range got { // sorted below
		keys = append(keys, k)
	}
	for k := range wireGoldens { // sorted below
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	failed := false
	for _, k := range keys {
		if got[k] != wireGoldens[k] {
			failed = true
			t.Errorf("%s: digest %q, want %q", k, got[k], wireGoldens[k])
		}
	}
	if failed {
		var b strings.Builder
		for _, k := range keys {
			if v, ok := got[k]; ok {
				fmt.Fprintf(&b, "\t%q: %q,\n", k, v)
			}
		}
		t.Logf("current digests:\n%s", b.String())
	}
}
