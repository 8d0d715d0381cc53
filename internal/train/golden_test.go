package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/nn"
)

// trainedWeightsGolden holds SHA-256 digests of the float64 weight bits
// (plus the returned loss) after each training entry point on a fixed small
// RW collection. The mae and bce constants were recorded from the
// tape-based trainer, which the fused train step replays operation for
// operation; the guided and autoguided ones pin the default warm-up and
// eviction schedule. Every digest must match exactly.
var trainedWeightsGolden = map[string]string{
	"mae/lsm/w1":         "acfb677601b37a4b0123e05b1940cc6e680a456d40b2884042e2ba71fbc65782",
	"mae/lsm/w2":         "d13599f2b5150ebcc1cb62ae22ca023a3ef064d9944dd4582cd756a26002a9c4",
	"mae/lsm/w3":         "2ef844b4aa1e8fb61b3895766578f66646be51c9bc52b4930ecae456c18a2d2e",
	"mae/clsm/w1":        "2ee9d6d25da2ce8f7fec25e9fc799379414ab33da63df6950beea765a60c6b86",
	"mae/clsm/w2":        "8fedccc1748fce9397a474df5265923a3ffcdc5c8454406d3ee8db9307cafd3b",
	"mae/clsm/w3":        "17a4f3ecbaac6b37dc37b89a2f99b1df33f48eb1f88e613dd77fa3f397844b25",
	"bce/lsm/w1":         "733db27129713b282729a669bd39c5f37ecd62f778dbb7b9540e21a705fb2cd4",
	"bce/lsm/w2":         "69d5466c8d5334447f7bfd6d4e40337147bd0d56bac31d0d36620ee70c5982d6",
	"bce/lsm/w3":         "3b9a28644e2fd933a445a5fb845c9044c4f97404a5fca4ffe26f8aaeebf9d95d",
	"bce/clsm/w1":        "c52e31395d8cdd2a7cdbb233ecf23f6c5609ef5b1cec2d25517004d4113fa811",
	"bce/clsm/w2":        "d788db8540ae58ce80f2be84117693c4278336db958269b14e6118a91880b114",
	"bce/clsm/w3":        "a3d9bd53bffd3da3b8f27ac3c3979ed0b598b6e3bccbb23a98a2730aed8aca46",
	"guided/lsm/w1":      "5589f1a388fc27b55d8d83f0060ad19c95f2947f2e29051222fe9cc8fb352e4a",
	"guided/lsm/w2":      "62cb467c55f0f1fdd3efdbeb49f4468c50cd0fdfcb6c671d2f3863adc5f241fa",
	"guided/lsm/w3":      "7136695b22befd5462fce2cdcef4a3f623222596ba52419bf2f79b74992ba207",
	"guided/clsm/w1":     "a48fdad14ccf4d3ec0b5f2e921b417a284875c269f89185762fcce541355f031",
	"guided/clsm/w2":     "8745b3818d8268ee3156e0e222cb3ea64247e7161d4d260dbb5985883d5d7a5e",
	"guided/clsm/w3":     "9eb64f78e670c7e67aa4d2bf4357ea5b822283ac36a2141754cd879c05fa1fbe",
	"autoguided/lsm/w1":  "417bb24383f060ede0cf2d4fcee9d353b30e6c159a49eb297cd323d40f898cfb",
	"autoguided/lsm/w2":  "385a7ec3f33a46d8d868b71dbacbae0bddce8e19e325eba47c11a2b4572eaf94",
	"autoguided/lsm/w3":  "a55182544fd122fdcf86945d7ce63f61321afe72de14958920c4de64a9b293c7",
	"autoguided/clsm/w1": "515682feade07247bc72e34b246d45ae753b9501b77a17570a286b5123dcba29",
	"autoguided/clsm/w2": "3504c585894e8e3aa6c5a630cdb1d95d34f75fb808398b4c1428347f6dd8a4b6",
	"autoguided/clsm/w3": "5a62b75be94e5f8145c2e8d99bfc9e3f491323da85c72ac91160a045b595cb30",
}

// weightDigest hashes every parameter's float64 bits in Params order,
// followed by the given extra values.
func weightDigest(m *deepsets.Model, extra ...float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			put(v)
		}
	}
	for _, v := range extra {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTrainedWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes bits.
		t.Skip("golden weight digests are recorded on amd64")
	}
	c := dataset.GenerateRW(120, 200, 11)
	st := dataset.CollectSubsets(c, 2)
	// 16*k + 2 samples: the last batch of 2 leaves a third worker idle.
	samples := st.CardinalitySamples()[:16*10+2]
	sc := FitScaler(samples)
	md := st.MembershipSamples(c, 2, 1.0, 3)
	md.Positive, md.Negative = md.Positive[:100], md.Negative[:61]

	newModel := func(compressed bool) *deepsets.Model {
		m, err := deepsets.New(deepsets.Config{
			MaxID: c.MaxID(), EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8,
			RhoHidden: []int{8}, Compressed: compressed, OutputAct: nn.Sigmoid, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tasks := []struct {
		name string
		run  func(m *deepsets.Model, cfg Config) ([]float64, error)
	}{
		{"mae", func(m *deepsets.Model, cfg Config) ([]float64, error) {
			loss, err := Regression(m, samples, sc, cfg)
			return []float64{loss}, err
		}},
		{"bce", func(m *deepsets.Model, cfg Config) ([]float64, error) {
			loss, err := Classification(m, md, cfg)
			return []float64{loss}, err
		}},
		{"guided", func(m *deepsets.Model, cfg Config) ([]float64, error) {
			cfg.Epochs = 3
			res, err := Guided(m, samples, sc, GuidedConfig{Train: cfg, Percentile: 90})
			if err != nil {
				return nil, err
			}
			return []float64{res.FinalLoss, float64(len(res.Outliers))}, nil
		}},
		{"autoguided", func(m *deepsets.Model, cfg Config) ([]float64, error) {
			res, err := AutoGuided(m, samples, sc, AutoGuidedConfig{Train: cfg, TargetQError: 1.05})
			if err != nil {
				return nil, err
			}
			return []float64{res.FinalLoss, float64(len(res.Outliers))}, nil
		}},
	}
	for _, task := range tasks {
		for _, compressed := range []bool{false, true} {
			for workers := 1; workers <= 3; workers++ {
				variant := "lsm"
				if compressed {
					variant = "clsm"
				}
				name := fmt.Sprintf("%s/%s/w%d", task.name, variant, workers)
				m := newModel(compressed)
				extra, err := task.run(m, Config{Epochs: 2, LR: 0.01, BatchSize: 16, Workers: workers, Seed: 5})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := weightDigest(m, extra...), trainedWeightsGolden[name]; got != want {
					t.Errorf("%s: weight digest\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
}
