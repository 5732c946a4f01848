package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// canonGolden pins the SHA-256 of the canonical bytes of every
// checked-in scenario, the heterogeneous benchmark corpus and the edge
// documents below. The digests were recorded from the fmt-based
// encoder the append-based one replaced; a match proves no cache
// address moved.
var canonGolden = map[string]string{
	"aliases":                       "1a629bef04ede0f34ce8fff805468215231bfa2efa45d74d962cfe7729b904c6",
	"empty":                         "0cb4195765e4afa56313d0b4cda587a1de760cb9e023e30e0969191933ead4ef",
	"fifo-counts":                   "df146fe30b718df1d0cade65cc175df86d92bde40acdf58e720d1185540fde62",
	"hetero-00":                     "db1ea6662e4af2b763c48b77c7a23523c268ab8218b2531a6b662403de49b379",
	"hetero-01":                     "434c0dfe937a3f6c0391dbb3b1676980a3e649a4a340057f4a67a5f3ef014bf9",
	"hetero-02":                     "b8e68241e11fa72b1b45c58cdb258f57644a2c06630af176fdabc4e69c7dd296",
	"hetero-03":                     "391b6773816a4bc07562b06c6bcb59b762ec21599bf346a94ee20d95a68a35fb",
	"hetero-04":                     "8396f0f55c0086eacb323d9c2ed86b2913a1e8978fec652f2eafaf6a551e78da",
	"hetero-05":                     "c7094616547c23885d4760d8a580114d2ba4dc4f7b2955b00c3223251a27f171",
	"hetero-06":                     "d9227dbba019eb04f3ef65b23b3bf41cf05c8f6aad4ea16a612d9fff05066390",
	"hetero-07":                     "26e8ca3d0b9457edba37272d0808c338455bbbeec2de4e100d556f27cd3beaa1",
	"hetero-08":                     "c02fa8c12528ad153a6d1e84f8ff9e10bf7102866fde188902f6e965d77e9717",
	"hetero-09":                     "8fd1a598c20ce5a55e976e5c9fe38b7510e46ef59464a9bff939c7c17a287934",
	"hetero-10":                     "befcabf642d1aeea077db92adf524a267dfaa02d4ebb94259b35023bd14cc52e",
	"hetero-11":                     "e4f09351726db9fd760c6354f8d96b23d1078a301c8c844cdf1733d51e048156",
	"hetero-12":                     "1c50ce54c26832c8d2f60161f63316597d5636bbdb2230deb6245bee5d9e6a0f",
	"hetero-13":                     "e50efa22ef1011e435c192e248fd7b0b85ed819996b526f227823637135c8102",
	"hetero-14":                     "1203d7c46db0ca57d683b18ccc579d57993f44ed27324dfc4ada02bfa6b668ae",
	"hetero-15":                     "1f7038a1f6de1c7bef4ff1a7fa3ff38d8eef58c5e9a294bb18b8514e0561d6c7",
	"heterogeneous-starvation.json": "120441548189d05d5eebcca674de41050999e54f6070dac5dae54664e1bdfc4b",
	"hostile-names":                 "97e678d475d351516e63ccb34d88ef9d837b01aff7eb42e10918e9a01e0b3cd8",
	"initial-maxsteps":              "5b164c2cc8f71ad2bb65de3ef5f282f367adfbf388c4a4ba6f7502e8e461c295",
	"law-fairrate":                  "47866dab1af7455d6218b1e6de3fce5c95123197fe9963b7c33371284012652c",
	"law-power":                     "2bb2041100b19a294d167b9e9b7c9392e767ae11c1fd00923b6c560a8041d49d",
	"law-window":                    "bd2a473cebee9eba61fd5aa44d3247fe738589a965a191f77c4beefeaab01917",
	"signal-binary":                 "b4f11e716a243448d3b123b15ed9f8d6b80194c2c139bdfd09a809b04a073880",
	"signal-exponential":            "06934d4bfb72dd8929f7b1674a97d5cdc345e2154a67cc3f01247048c80882eb",
	"signal-power":                  "71da052dd8c0eca9bf9da83e6bc79ab17933a5d12ff1143f62338f3eb93d357a",
	"two-bottleneck.json":           "1b3c606560c47d63f2dad46c89e72bf3b2ee7c5ab5c931b22da8fa2a3720ce49",
}

// canonEdgeDocs exercise every branch of the canonical encoding: each
// signal and law kind with its consumed and unconsumed parameters,
// aliases and case, counts, explicit initial rates (negative zero
// included), maxSteps, and names that need quoting.
var canonEdgeDocs = map[string]string{
	"signal-power":       `{"signal":{"kind":"power","k":2,"theta":9},"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`,
	"signal-exponential": `{"signal":{"kind":"Exponential","theta":0.5},"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`,
	"signal-binary":      `{"signal":{"kind":"binary","threshold":0.75,"k":3},"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`,
	"law-power":          `{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"kind":"power","eta":0.1,"bss":0.5,"p":2,"beta":7}}]}`,
	"law-fairrate":       `{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"kind":"FairRate","eta":0.1,"beta":0.25,"bss":3}}]}`,
	"law-window":         `{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"kind":"window","eta":0.02,"beta":0.5}}]}`,
	"aliases":            `{"discipline":"FS","feedback":"AGGREGATE","signal":{"kind":"RATIONAL","k":4},"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"kind":"Multiplicative","eta":1.5,"bss":0.5}}]}`,
	"fifo-counts":        `{"discipline":"fifo","gateways":[{"name":"A","mu":3,"latency":0.2},{"name":"B","mu":1e-3,"latency":0}],"connections":[{"path":["A","B"],"count":300},{"path":["B"],"count":1},{"path":["A"],"count":0}]}`,
	"initial-maxsteps":   `{"name":"init","gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]},{"path":["G"]}],"initial":[-0,0.125],"maxSteps":900}`,
	"hostile-names":      `{"name":"x\nmu=9 \"q\" é","gateways":[{"name":"g,1","mu":1},{"name":"]","mu":2}],"connections":[{"path":["g,1","]"]}]}`,
	"empty":              `{}`,
}

func TestCanonicalGolden(t *testing.T) {
	docs := map[string][]byte{}
	for _, d := range scenariotest.Files(t) {
		docs[d.Name] = d.Body
	}
	for i, d := range scenariotest.Hetero(16) {
		docs[fmt.Sprintf("hetero-%02d", i)] = d
	}
	for name, js := range canonEdgeDocs {
		docs[name] = []byte(js)
	}
	if len(docs) != len(canonGolden) {
		t.Errorf("%d documents, %d recorded digests", len(docs), len(canonGolden))
	}
	for name, doc := range docs {
		sp, err := Load(strings.NewReader(string(doc)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := sp.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(c)
		if got := hex.EncodeToString(sum[:]); got != canonGolden[name] {
			t.Errorf("%s: canonical digest %s, recorded %q", name, got, canonGolden[name])
		}
	}
}
