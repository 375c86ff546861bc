package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reportGoldenScale is small enough to run the whole catalog in seconds
// yet long enough that every entry prints non-degenerate rows (fig4
// needs at least one tuning period, fig7 at least one throughput
// sample).
var reportGoldenScale = Scale{Warmup: 100, Measure: 400, BurstLow: 150, BurstHigh: 200}

// reportGoldens pins, at reportGoldenScale, the SHA-256 of every
// PaperOrder entry's text report (key "<name>") and of each CSV file it
// writes (key "<name>/<file>"). Any change to a spec builder, to the
// way Entry.Run executes a grid, or to a formatter shows up here as a
// changed digest.
var reportGoldens = map[string]string{
	"ext1":                    "a241ee9c4cee9c15d26323aea3c2ba85befb07a5fce216a2a0cd24a6e1747676",
	"ext10":                   "4be7e48e528cb72834b49615a0aff213f5833d00cfd9c37f576288c8ff9737dd",
	"ext11":                   "890144d03ad5a37e8ee30cb19c3c23f55d582433a6ab80b805d0c7489d8e25c9",
	"ext12":                   "bebb16be02440333f88908809a494c7b800d385a4e80dd10da80d60c89632015",
	"ext13":                   "5680d02b65e7f4a7cf1cc657cf61b730d8f5be9ee89747847ad7340bfc39277b",
	"ext14":                   "0d039e539485c7e7245cd610d6a0bec79f1311797ea1cc21f4a5a14818cca2ec",
	"ext2":                    "824913566ac51fa62d0708ef87ea2bf42788523e247f7801d08523fe802c5cb7",
	"ext3":                    "b1b168fef36f373a3e31a3f09d4db92276179bb88c02a391a1f4cacddc26c2df",
	"ext4":                    "7059b282c1017602bd6f94b52a002b70cdda99ee66f333b8028dd9c4fb8d27f8",
	"ext5":                    "790c46e70ae965b617d4db3b5a095e84d5bada712c611c3f4bb6f14cc987929d",
	"ext6":                    "bfe2d453fc0ceb078dfd29e9248487bccb337340f173da62d5fd86a6bffd1a66",
	"ext7":                    "0bfa161fe658e82b001edb9d53af7053390b68affa694ec80a5bd9d07c51207a",
	"ext8":                    "6789a401d85bf922fa4cac3031e01cdbe5ca3ec5dbc554eb108fbdc49e02a824",
	"ext9":                    "c3f7531cf4935f1b0e8d7ace6a52b0429a22484c088332b6c5aea3d8de88fd41",
	"ext9/ext9.csv":           "bb2eed269a3a6282c3b31b470777f9930fa16e3226cc2c5331ccc75358fab2cb",
	"fig1":                    "8071ff8e270d3baf13b251087f23d6cd908916da620abba43c83f1076838dbbe",
	"fig1/fig1.csv":           "c2d9f3f7253a5bba0ba9cda6e3dd420af6f9588f75906f7be8e62ac2a046c5fd",
	"fig2":                    "60ac8738e34a2ffcec4697bf1416ce962e337bfbd13bbea148e6710dc403c14c",
	"fig2/fig2.csv":           "263815a3f8d19acc0bbb89429ed6626db75e7636535cd487e0f8faa5342a8294",
	"fig3":                    "ffc11ab17ff2787e9b4ec2bda53680f96da0e6999aeca00e70a87f9e20dc5efd",
	"fig3/fig3_avoidance.csv": "61c91c50672083d41bf5b6208cca69f73de2d17b5b66382e27614aec7f25fce7",
	"fig3/fig3_recovery.csv":  "3995886b5b6776110fdb8c5811d9f1de1645d01a3c729d0d84c4454b5cadb550",
	"fig4":                    "c90ac4fa19c014b832fd9c96ce3bcf93d3a0121405c41caa723a0c5d8d3d7b81",
	"fig4/fig4.csv":           "63ef5c8b115a26f11acd20dd6cd6b3114e5761e4fab5a1b265b5e2bf7466b37d",
	"fig5":                    "5219d8a2903441eef01da284ef418ac4543155d5f0101ad62eda936f4d478520",
	"fig5/fig5.csv":           "0a153371780a8718355fb4674e718119952d2600c3d78af5c2f65fdb859e4c70",
	"fig6":                    "62dc0eb33224de3a37a452128568ecdd85115a344efb8518ccec198d64386dd8",
	"fig7":                    "09948b40bbad4e2416dc8a3655d6f1e61ecfd6350d46d4036fe2a63152976f2c",
	"fig7/fig7_avoidance.csv": "1da3c054f2749904b6916da44a7ecbcce8a53461f7f55b02053e27ea59a3f5e8",
	"fig7/fig7_recovery.csv":  "39f540d88fc213e759ce9d20ffdede802b0bc7b1b76c8e6d77d77476e5a9786b",
	"tab1":                    "689351c047210c7100b64062a47b5adcb5fed4e9c2a6260d2060386f34f761f0",
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestRegistryReportGolden runs every registry entry through Entry.Run
// and requires its text report and CSV files to be byte-identical to
// the pinned digests.
func TestRegistryReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole catalog")
	}
	got := make(map[string]string)
	for _, name := range PaperOrder {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("PaperOrder entry %q not registered", name)
		}
		dir := t.TempDir()
		var out bytes.Buffer
		if err := e.Run(RunContext{Scale: reportGoldenScale, Out: &out, CSVDir: dir}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = sha256Hex(out.Bytes())
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/"+f.Name()] = sha256Hex(data)
		}
	}

	keys := make([]string, 0, len(got)+len(reportGoldens))
	for k := range got { // sorted below
		keys = append(keys, k)
	}
	for k := range reportGoldens { // sorted below
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	failed := false
	for _, k := range keys {
		if got[k] != reportGoldens[k] {
			failed = true
			t.Errorf("%s: digest %q, want %q", k, got[k], reportGoldens[k])
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
