package nested

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseJSONPreservesAttributeOrder(t *testing.T) {
	// Keys deliberately in non-alphabetical order.
	data := []byte(`{"zeta": 1, "alpha": {"y": 2, "x": 3}, "mid": [1, 2]}`)
	v, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	names := v.Shape().Names()
	if names[0] != "zeta" || names[1] != "alpha" || names[2] != "mid" {
		t.Errorf("attribute order lost: %v", names)
	}
	inner, _ := v.Get("alpha")
	if got := inner.Shape().Names(); got[0] != "y" || got[1] != "x" {
		t.Errorf("nested attribute order lost: %v", got)
	}
}

func TestParseJSONTypes(t *testing.T) {
	v, err := ParseJSON([]byte(`{"i": 42, "d": 1.5, "s": "x", "b": true, "n": null, "l": [1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := mustGet(t, v, "i").AsInt(); f != 42 {
		t.Error("int lost")
	}
	if f, _ := mustGet(t, v, "d").AsDouble(); f != 1.5 {
		t.Error("double lost")
	}
	if mustGet(t, v, "n").Kind() != KindNull {
		t.Error("null lost")
	}
	if mustGet(t, v, "l").Kind() != KindBag {
		t.Error("array should decode to bag")
	}
}

func TestParseJSONErrors(t *testing.T) {
	for _, bad := range []string{``, `{`, `{"a": }`, `[1,]`, `{"a":1} trailing`} {
		if _, err := ParseJSON([]byte(bad)); err == nil {
			t.Errorf("ParseJSON(%q) should fail", bad)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := sampleTweet()
	data, err := orig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(orig, back) {
		t.Errorf("round trip changed value:\n %s\n %s", orig, back)
	}
}

// TestUnmarshalJSONIsParseJSON: a Value inside an encoding/json struct
// decodes as ParseJSON decodes it, a null element included, and the struct
// re-marshals to the bytes it was read from.
func TestUnmarshalJSONIsParseJSON(t *testing.T) {
	data := []byte(`{"rows":[{"z":1,"a":[2.5,"x"]},null],"one":{"k":true}}`)
	var doc struct {
		Rows []Value `json:"rows"`
		One  Value   `json:"one"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{`{"z":1,"a":[2.5,"x"]}`, `null`} {
		want, err := ParseJSON([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(doc.Rows[i], want) || doc.Rows[i].Kind() != want.Kind() {
			t.Errorf("rows[%d] = %s, want %s", i, doc.Rows[i], want)
		}
	}
	if back, err := json.Marshal(doc); err != nil || !bytes.Equal(back, data) {
		t.Errorf("re-marshal = %s, %v; want %s", back, err, data)
	}
	if err := json.Unmarshal([]byte(`{"one":{"k":}}`), &doc); err == nil {
		t.Error("accepted a malformed value")
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	vals := []Value{sampleTweet(), Item(F("a", Int(1)))}
	var buf bytes.Buffer
	if err := EncodeJSONLines(&buf, vals); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("want 2 lines, got %d", got)
	}
	back, err := ParseJSONLines(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !Equal(back[0], vals[0]) || !Equal(back[1], vals[1]) {
		t.Error("JSON-lines round trip mismatch")
	}
	// blank lines are skipped
	back2, err := ParseJSONLines([]byte("\n" + buf.String() + "\n\n"))
	if err != nil || len(back2) != 2 {
		t.Errorf("blank-line handling: %v, %d values", err, len(back2))
	}
	if _, err := ParseJSONLines([]byte("{}\nnot json\n")); err == nil {
		t.Error("bad line should fail with line number")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should cite line 2: %v", err)
	}
}

func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		v := randomValue(rand.New(rand.NewSource(seed)), 3)
		data, err := v.MarshalJSON()
		if err != nil {
			return false
		}
		back, err := ParseJSON(data)
		if err != nil {
			return false
		}
		// Sets encode as arrays and decode as bags; the random generator only
		// builds bags, so equality must hold exactly.
		return Equal(v, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
