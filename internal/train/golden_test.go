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
// RW collection. The constants were recorded from the tape-based trainer;
// the fused train step replays its floating-point operations in the same
// order, so every digest must still match exactly.
var trainedWeightsGolden = map[string]string{
	"mae/lsm/w1":     "acfb677601b37a4b0123e05b1940cc6e680a456d40b2884042e2ba71fbc65782",
	"mae/lsm/w2":     "d13599f2b5150ebcc1cb62ae22ca023a3ef064d9944dd4582cd756a26002a9c4",
	"mae/lsm/w3":     "2ef844b4aa1e8fb61b3895766578f66646be51c9bc52b4930ecae456c18a2d2e",
	"mae/clsm/w1":    "2ee9d6d25da2ce8f7fec25e9fc799379414ab33da63df6950beea765a60c6b86",
	"mae/clsm/w2":    "8fedccc1748fce9397a474df5265923a3ffcdc5c8454406d3ee8db9307cafd3b",
	"mae/clsm/w3":    "17a4f3ecbaac6b37dc37b89a2f99b1df33f48eb1f88e613dd77fa3f397844b25",
	"mse/lsm/w1":     "86455f9b4a0383ca47fda2cc9b5048a15e7fee08d14b03d24bb835f02b8ee5b2",
	"mse/lsm/w2":     "0fdf3dafdff302e5ad0c7473c7e57cfc675c18a795b603a05c6d963f406dac50",
	"mse/lsm/w3":     "95f10d55d4b9b13d7a773d8afc16c9e2affa137be59cddad9cbdd24514fbb660",
	"mse/clsm/w1":    "977ab4c90ba8c85403119e3bf3f6bff5a998b5e31cb59d7c6fc3518ea7c65cb4",
	"mse/clsm/w2":    "cc76e83cf74187d9c56cb76c88a86e14fb59c2ed162d1ab12f733f36cfd725d7",
	"mse/clsm/w3":    "370d14dea4a71df55e53b7b88dbacafee8a8a4729a3a9ce6bc61448b0f85f269",
	"bce/lsm/w1":     "733db27129713b282729a669bd39c5f37ecd62f778dbb7b9540e21a705fb2cd4",
	"bce/lsm/w2":     "69d5466c8d5334447f7bfd6d4e40337147bd0d56bac31d0d36620ee70c5982d6",
	"bce/lsm/w3":     "3b9a28644e2fd933a445a5fb845c9044c4f97404a5fca4ffe26f8aaeebf9d95d",
	"bce/clsm/w1":    "c52e31395d8cdd2a7cdbb233ecf23f6c5609ef5b1cec2d25517004d4113fa811",
	"bce/clsm/w2":    "d788db8540ae58ce80f2be84117693c4278336db958269b14e6118a91880b114",
	"bce/clsm/w3":    "a3d9bd53bffd3da3b8f27ac3c3979ed0b598b6e3bccbb23a98a2730aed8aca46",
	"guided/lsm/w1":  "033eab52cc270ab0642854c85532bf02fca92eb3b01bea336a0436167d1130b3",
	"guided/lsm/w2":  "269b2757a86e41f0fd71a5bf79a5a51de01fd0f84aeaea66d4c500977bd1f229",
	"guided/lsm/w3":  "03650364b3af1bce44012fc4b9c480f57da891e27a667d9a43b61269ac122cae",
	"guided/clsm/w1": "9f0f95e5916e9b48899f04488842ae4e482abed9e77ee53413831469ef26dcdd",
	"guided/clsm/w2": "c4a05c2f6302d2a42220e1c870fd3f5e87a14b8098d6bcd3b709ff10f17de0d5",
	"guided/clsm/w3": "2e129bfc90a48490f0aadf3d6f85166a302f3b6628738d65cd988e41e00da383",
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
		{"mse", func(m *deepsets.Model, cfg Config) ([]float64, error) {
			cfg.Loss = LossMSE
			loss, err := Regression(m, samples, sc, cfg)
			return []float64{loss}, err
		}},
		{"bce", func(m *deepsets.Model, cfg Config) ([]float64, error) {
			loss, err := Classification(m, md, cfg)
			return []float64{loss}, err
		}},
		{"guided", func(m *deepsets.Model, cfg Config) ([]float64, error) {
			cfg.Epochs = 3
			res, err := Guided(m, samples, sc, GuidedConfig{Train: cfg, Percentile: 90, Rounds: 2})
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
