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
// after each training entry point on a fixed small RW collection, followed
// by the returned loss (mae, bce) or the number of evicted outliers
// (guided, autoguided). The mae and bce constants were recorded from the
// tape-based trainer, which the fused train step replays operation for
// operation; the guided and autoguided ones pin the default warm-up and
// eviction schedule, and were recorded before the predictor pooled ρ's
// first layer inside the sum, so they also pin that the eviction, which
// predicts through that path, did not move. The "odd" entries train
// EmbedDim 3 with widths 11, so every mat kernel runs its odd-row and
// column-tail branches; they were recorded with the one-row-per-pass
// kernels that preceded the blocked ones. Every digest must match exactly.
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
	"guided/lsm/w1":      "cb7833fb5598f316bbd36ade7ceea824e8e8cc964c7becf361c2e83ff31c1171",
	"guided/lsm/w2":      "8b9e97c59507dbd7a708fe11348a8b405573de3e123663c369fb4df1ab3312b9",
	"guided/lsm/w3":      "67a96a4f39b8813e5b5381ef96b2d08d289611b1c9c750218d185d1abf409f78",
	"guided/clsm/w1":     "7d436bf832a1be9002992ab24cd29867e04d83dc8e300c568785719d39d582b4",
	"guided/clsm/w2":     "d11dcf3a83acc7beb7e585907aa20c2300a6cbf02bd34b903a9f4290b8bbcf88",
	"guided/clsm/w3":     "aadfac9b125f774bc01f451ec8fb26a5c9f13d87d927506ebb014522f26f59ed",
	"autoguided/lsm/w1":  "74bd43288cfe3e8981dff2c4be6ef50f39e89f764961923b7915e5aa0d7cfd3c",
	"autoguided/lsm/w2":  "3453d055cf76c41eee0d7cfd6d7f5a4e380948fd3dd154cd0d67f5c767230a9f",
	"autoguided/lsm/w3":  "1cf985b3975bf75982a5707cb607d7ea23abb885b1e71311ac577cb3263e70cb",
	"autoguided/clsm/w1": "7080974a107128014d479f78097c3b94141af5e4e3771c9eaf884867fe69bf76",
	"autoguided/clsm/w2": "c5c23c13354135dcdedcded1fe44b68010f0369126a614754aae04e6c368dae3",
	"autoguided/clsm/w3": "4b0a5736445a8ca4ceda596b2f9c6ec451efc8fe657994c7715cc6000743b3d5",
	"mae/lsm/odd/w1":     "33eea54733e46f8c5e737a195b8a4d5f84bf1266f8b3c9b453b195b5dc67ca47",
	"mae/lsm/odd/w2":     "eda8d6f351d4d733dc36bf4e5298547119f97397daec4b08b7dee4676cf348a0",
	"mae/clsm/odd/w1":    "9d18cec96f809145dd688b3bf3cb600e70eef87c7650ba118a25df2892fc8bac",
	"mae/clsm/odd/w2":    "f1575ed1c85db8b4f68db38d73f2070b4f5cad3edc2af123af492798771902ac",
	"bce/lsm/odd/w1":     "cf276c18415004a4e440e5e55bd205e67c06a10c635c10173c6547cfe210a416",
	"bce/lsm/odd/w2":     "d9ff76421b56fcf8a00a40f176a8f5b104a692eaad59dfc816eae6b3371e2a68",
	"bce/clsm/odd/w1":    "6e926e8eea0d8652b975ee0f0fb2d7aa5f1747e7279495c0b24b5281f3bd55f4",
	"bce/clsm/odd/w2":    "1608ba46cd148d884e03b92c421cf05f431ccdb9d5aa1998f906b99359a53001",
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

	type shape struct {
		suffix       string // name part after the variant
		embed, width int
		workers      int // trains with 1..workers
	}
	shapes := []shape{{"", 4, 8, 3}, {"/odd", 3, 11, 2}}
	newModel := func(compressed bool, sh shape) *deepsets.Model {
		m, err := deepsets.New(deepsets.Config{
			MaxID: c.MaxID(), EmbedDim: sh.embed, PhiHidden: []int{sh.width}, PhiOut: sh.width,
			RhoHidden: []int{sh.width}, Compressed: compressed, OutputAct: nn.Sigmoid, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tasks := []struct {
		name string
		odd  bool // also trains at the odd shape
		run  func(m *deepsets.Model, cfg Config) ([]float64, error)
	}{
		{"mae", true, func(m *deepsets.Model, cfg Config) ([]float64, error) {
			loss, err := Regression(m, samples, sc, cfg)
			return []float64{loss}, err
		}},
		{"bce", true, func(m *deepsets.Model, cfg Config) ([]float64, error) {
			loss, err := Classification(m, md, cfg)
			return []float64{loss}, err
		}},
		{"guided", false, func(m *deepsets.Model, cfg Config) ([]float64, error) {
			cfg.Epochs = 3
			res, err := Guided(m, samples, sc, GuidedConfig{Train: cfg, Percentile: 90})
			if err != nil {
				return nil, err
			}
			return []float64{float64(len(res.Outliers))}, nil
		}},
		{"autoguided", false, func(m *deepsets.Model, cfg Config) ([]float64, error) {
			res, err := AutoGuided(m, samples, sc, AutoGuidedConfig{Train: cfg, TargetQError: 1.05})
			if err != nil {
				return nil, err
			}
			return []float64{float64(len(res.Outliers))}, nil
		}},
	}
	for _, task := range tasks {
		for _, sh := range shapes {
			if sh.suffix != "" && !task.odd {
				continue
			}
			for _, compressed := range []bool{false, true} {
				for workers := 1; workers <= sh.workers; workers++ {
					variant := "lsm"
					if compressed {
						variant = "clsm"
					}
					name := fmt.Sprintf("%s/%s%s/w%d", task.name, variant, sh.suffix, workers)
					m := newModel(compressed, sh)
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
}
