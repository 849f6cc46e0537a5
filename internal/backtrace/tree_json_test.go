package backtrace

import (
	"bytes"
	"encoding/json"
	"testing"

	"pebble/internal/jsonenc"
	"pebble/internal/path"
)

// refTreeJSON and refNodeJSON are the struct-and-json.Marshal encoding
// Tree.MarshalJSON used before AppendJSON, kept as the reference AppendJSON
// must reproduce byte for byte.
type refTreeJSON struct {
	Name         string        `json:"name,omitempty"`
	Pos          int           `json:"pos,omitempty"`
	Contributing bool          `json:"contributing"`
	Access       []int         `json:"accessed,omitempty"`
	Manip        []int         `json:"manipulated,omitempty"`
	Children     []refTreeJSON `json:"children,omitempty"`
}

func refNodeJSON(n *Node) refTreeJSON {
	out := refTreeJSON{
		Name:         n.Name,
		Contributing: n.Contributing,
		Access:       sortedInts(n.Access),
		Manip:        sortedInts(n.Manip),
	}
	if n.Pos > 0 {
		out.Pos = n.Pos
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, refNodeJSON(c))
	}
	return out
}

func refMarshalTree(t *Tree) []byte {
	out := struct {
		Opaque   bool          `json:"opaque,omitempty"`
		Children []refTreeJSON `json:"children,omitempty"`
	}{Opaque: t.Opaque, Children: refNodeJSON(t.Root).Children}
	data, _ := json.Marshal(out)
	return data
}

func TestTreeAppendJSONMatchesReference(t *testing.T) {
	empty := NewTree()
	opaque := NewTree()
	opaque.Opaque = true

	marked := NewTree()
	marked.EnsureContributing(mp("user.id_str"))
	marked.EnsureContributing(mp("tweets[2].text"))
	marked.EnsureContributing(mp("tweets[pos].text"))
	marked.AccessPath(mp("retweet_cnt"), 9)
	marked.AccessPath(mp("retweet_cnt"), 2)
	marked.Find(mp("tweets[2].text"))[0].MarkManip(8)
	marked.Find(mp("tweets[2].text"))[0].MarkManip(3)
	marked.Opaque = true

	escaped := NewTree()
	escaped.EnsureContributing(path.New(`<b>&"q"`, "bad \xff utf8", "é\u2028"))

	for _, tr := range []*Tree{empty, opaque, marked, escaped} {
		ref := refMarshalTree(tr)
		if got := tr.AppendJSON([]byte("x"), jsonenc.Compact); string(got) != "x"+string(ref) {
			t.Fatalf("compact:\n got %s\nwant %s", got[1:], ref)
		}
		if got, err := json.Marshal(tr); err != nil || !bytes.Equal(got, ref) {
			t.Fatalf("json.Marshal:\n got %s (%v)\nwant %s", got, err, ref)
		}
		prefix := ""
		for depth := 0; depth < 3; depth++ {
			var want bytes.Buffer
			if err := json.Indent(&want, ref, prefix, "  "); err != nil {
				t.Fatal(err)
			}
			if got := tr.AppendJSON(nil, depth); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("depth %d:\n got %s\nwant %s", depth, got, want.Bytes())
			}
			prefix += "  "
		}
	}
	// The unsorted mark lists above are rendered sorted and left untouched.
	if n := marked.Find(mp("retweet_cnt"))[0]; n.Access[0] != 9 {
		t.Errorf("AppendJSON reordered the node's access list: %v", n.Access)
	}
}
