package shard

import (
	"encoding/json"
	"flag"
	"fmt"
	"testing"

	"repro/internal/inject"
	"repro/internal/sim"
)

// TestDefaultSpecFingerprints pins the fingerprint of the default
// campaign (every campaign flag at its default, -soc 1..10) for each
// Table I benchmark. Journals and lake keys are filed under these, so a
// change to any default — the Table I cluster count above all — must
// show up here, not as journals that silently stop resuming.
func TestDefaultSpecFingerprints(t *testing.T) {
	want := []string{
		"8d609edca4d949ec8bf0fb7b32e5720dc8a97deff3a921933f7213904731fc17",
		"1844e2b5f21b8be1bca641be35b8fea73eb364b1f6c3c67ac19e22862a2965f5",
		"3b27d63ffcb3974565a6fe9ace70ed8105a77bc0519d32afb475432eac7a95c5",
		"722e12da17b205b21407c946faf40ca8fcd852d7d2fc3430172917eedf66f791",
		"b35cfce2ecaaab65b435d0dd8fcf1f8d14822d244c2d90e8a15551b5dbba1f19",
		"82acf36285de8842a70f2a7393c65edac978d1d68c260369e5fb28f5f3ed4c4c",
		"60cd06bce25806e113765908f5667abd24fa60da1aa4d69c31c0bc16d5913220",
		"ee82edcd8f71b343a6e9d3f27be3c02c94ada8209afdf8de93939703ece93844",
		"7bc715aa24d01bd007a716b43925eabd8ff721cb30cfd34656cf8bff86f907a0",
		"27c02a33cb2c096dd65102cbc206de0d41aa6c9ab8f7fb3dc29d87b2629100e4",
	}
	for i, fp := range want {
		soc := i + 1
		fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
		specOf := CampaignFlags(fs)
		if err := fs.Parse([]string{"-soc", fmt.Sprint(soc)}); err != nil {
			t.Fatal(err)
		}
		cs, err := specOf()
		if err != nil {
			t.Fatal(err)
		}
		if got := fpOf(t, cs); got != fp {
			t.Errorf("SoC%d default spec %+v fingerprints %s, want %s", soc, cs, got, fp)
		}
	}
}

// fullSpecJSON is a campaign spec with every field non-zero — LevelSim,
// an explicit cluster seed, cold start and the VCD detector — as
// Fingerprint hashes it. The default-flag pins above leave the omitempty
// tail absent; this one fixes its order and tags.
const fullSpecJSON = `{"soc":4,"workload":"crc","engine":"LevelSim","let":60.5,"flux":2500000000,"exposure_s":8e-10,"kn":9,"ln":5,"sample_frac":0.35,"min_per_cluster":4,"seed":17,"cluster_seed":29,"cold_start":true,"compare_vcd":true}`

// TestFullSpecWireShape pins the JSON bytes and fingerprint of a spec
// lifted from options with every campaign parameter set, and checks that
// the bytes decode and re-encode unchanged and that Options lowers the
// spec back to the same parameters.
func TestFullSpecWireShape(t *testing.T) {
	o := inject.DefaultOptions()
	o.Engine = sim.KindLevel
	o.LET, o.Flux, o.ExposureS = 60.5, 2.5e9, 8e-10
	o.KN, o.LN = 9, 5
	o.SampleFrac, o.MinPerCluster = 0.35, 4
	o.Seed, o.ClusterSeed = 17, 29
	o.ColdStart, o.CompareVCD = true, true
	cs := SpecFromOptions(4, "crc", o)
	b, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != fullSpecJSON {
		t.Fatalf("spec encodes as\n%s\nwant\n%s", b, fullSpecJSON)
	}
	if got, want := fpOf(t, cs), "720378ed35b4fa74b58209e215e82c5ef77fbcb44536e8243200b0757f560b16"; got != want {
		t.Errorf("full spec fingerprints %s, want %s", got, want)
	}
	var back CampaignSpec
	if err := json.Unmarshal([]byte(fullSpecJSON), &back); err != nil {
		t.Fatal(err)
	}
	if back != cs {
		t.Errorf("decoded spec %+v, want %+v", back, cs)
	}
	if again := SpecFromOptions(cs.SoC, cs.Workload, cs.Options()); again != cs {
		t.Errorf("Options round trip gives %+v, want %+v", again, cs)
	}
}
