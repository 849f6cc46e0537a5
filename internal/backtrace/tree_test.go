package backtrace

import (
	"strings"
	"testing"

	"pebble/internal/path"
)

func mp(s string) path.Path { return path.MustParse(s) }

func TestEnsureAndFind(t *testing.T) {
	tr := NewTree()
	n := tr.EnsureContributing(mp("user.id_str"))
	if n.Name != "id_str" || !n.Contributing {
		t.Fatalf("EnsureContributing leaf = %+v", n)
	}
	if u := tr.Root.childK(nkey{name: "user"}); u == nil || !u.Contributing {
		t.Fatal("intermediate node missing or not contributing")
	}
	// Position expansion: tweets[2].text -> tweets / #2 / text.
	tr.EnsureContributing(mp("tweets[2].text"))
	tw := tr.Root.childK(nkey{name: "user"})
	_ = tw
	found := tr.Find(mp("tweets[2].text"))
	if len(found) != 1 || found[0].Name != "text" {
		t.Fatalf("Find(tweets[2].text) = %v", found)
	}
	// [pos] matches all position children.
	tr.EnsureContributing(mp("tweets[3].text"))
	if got := len(tr.Find(mp("tweets[pos].text"))); got != 2 {
		t.Errorf("Find with [pos] matched %d nodes, want 2", got)
	}
	if got := len(tr.Find(mp("tweets[9].text"))); got != 0 {
		t.Errorf("Find with absent position matched %d nodes", got)
	}
	if tr.Find(mp("nosuch")) != nil {
		t.Error("Find of absent attribute should be nil")
	}
	// Ensure does not downgrade existing contributing flags.
	tr2 := NewTree()
	tr2.EnsureContributing(mp("a.b"))
	tr2.Ensure(mp("a.c"), false)
	if !tr2.Root.childK(nkey{name: "a"}).Contributing {
		t.Error("Ensure downgraded existing node")
	}
	if tr2.Find(mp("a.c"))[0].Contributing {
		t.Error("Ensure created node should have the given flag")
	}
}

func TestAccessPath(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("user.id_str"))
	// Case 1: all nodes exist — mark every node along the path.
	tr.AccessPath(mp("user.id_str"), 9)
	u := tr.Root.childK(nkey{name: "user"})
	if len(u.Access) != 1 || u.Access[0] != 9 {
		t.Errorf("user access = %v", u.Access)
	}
	if got := tr.Find(mp("user.id_str"))[0].Access; len(got) != 1 || got[0] != 9 {
		t.Errorf("id_str access = %v", got)
	}
	// Case 2: nodes missing — created with c = false.
	tr.AccessPath(mp("user.name"), 9)
	name := tr.Find(mp("user.name"))
	if len(name) != 1 || name[0].Contributing || name[0].Access[0] != 9 {
		t.Errorf("influencing node wrong: %+v", name)
	}
	// Access through [pos] marks all existing positions.
	tr.EnsureContributing(mp("tweets[1].text"))
	tr.EnsureContributing(mp("tweets[2].text"))
	tr.AccessPath(mp("tweets[pos].text"), 5)
	for _, n := range tr.Find(mp("tweets[pos].text")) {
		if len(n.Access) != 1 || n.Access[0] != 5 {
			t.Errorf("positioned access mark missing: %+v", n)
		}
	}
	// Duplicate marks are not recorded twice.
	tr.AccessPath(mp("user.id_str"), 9)
	if got := tr.Find(mp("user.id_str"))[0].Access; len(got) != 1 {
		t.Errorf("duplicate access recorded: %v", got)
	}
}

func TestApplyMappingsRename(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("id_str"))
	tr.ApplyMappings([]Mapping{{In: mp("user.id_str"), Out: mp("id_str")}}, 3)
	n := tr.Find(mp("user.id_str"))
	if len(n) != 1 {
		t.Fatalf("transform failed: %s", tr)
	}
	if len(n[0].Manip) != 1 || n[0].Manip[0] != 3 {
		t.Errorf("manip mark = %v", n[0].Manip)
	}
	if !tr.Root.childK(nkey{name: "user"}).Contributing {
		t.Error("created ancestor should inherit contributing")
	}
	if tr.Root.childK(nkey{name: "id_str"}) != nil {
		t.Error("old node still present")
	}
}

func TestApplyMappingsIdentityLeavesNoMark(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("text"))
	tr.ApplyMappings([]Mapping{{In: mp("text"), Out: mp("text")}}, 3)
	n := tr.Find(mp("text"))[0]
	if len(n.Manip) != 0 {
		t.Errorf("identity mapping must not mark manipulation: %v", n.Manip)
	}
}

func TestApplyMappingsSwapIsSimultaneous(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("a"))
	tr.EnsureContributing(mp("b"))
	tr.Find(mp("a"))[0].MarkAccess(1)
	tr.Find(mp("b"))[0].MarkAccess(2)
	tr.ApplyMappings([]Mapping{
		{In: mp("b"), Out: mp("a")},
		{In: mp("a"), Out: mp("b")},
	}, 7)
	// a's annotations must now be under b and vice versa.
	if got := tr.Find(mp("b"))[0].Access; len(got) != 1 || got[0] != 1 {
		t.Errorf("swap lost a's marks: %v", got)
	}
	if got := tr.Find(mp("a"))[0].Access; len(got) != 1 || got[0] != 2 {
		t.Errorf("swap lost b's marks: %v", got)
	}
}

func TestApplyMappingsFoldsEmptyShells(t *testing.T) {
	// A struct whose fields all map back must disappear, folding its marks
	// into the moved children.
	tr := NewTree()
	tr.EnsureContributing(mp("user.id_str"))
	tr.EnsureContributing(mp("user.name"))
	tr.Root.childK(nkey{name: "user"}).MarkAccess(9)
	tr.ApplyMappings([]Mapping{
		{In: mp("id_str"), Out: mp("user.id_str")},
		{In: mp("name"), Out: mp("user.name")},
	}, 8)
	if tr.Root.childK(nkey{name: "user"}) != nil {
		t.Fatalf("empty shell survived:\n%s", tr)
	}
	for _, attr := range []string{"id_str", "name"} {
		n := tr.Find(mp(attr))
		if len(n) != 1 {
			t.Fatalf("moved node %s missing", attr)
		}
		if !containsInt(n[0].Access, 9) {
			t.Errorf("%s lost folded shell mark: %v", attr, n[0].Access)
		}
		if !containsInt(n[0].Manip, 8) {
			t.Errorf("%s missing manip mark: %v", attr, n[0].Manip)
		}
	}
}

func TestApplyMappingsWithPlaceholderTarget(t *testing.T) {
	// Flatten reversal: m_user.id_str becomes user_mentions[pos].id_str with
	// an unresolved placeholder, later substituted by position.
	tr := NewTree()
	tr.EnsureContributing(mp("m_user.id_str"))
	tr.ApplyMappings([]Mapping{{In: mp("user_mentions[pos]"), Out: mp("m_user")}}, 5)
	if got := len(tr.Find(mp("user_mentions[pos].id_str"))); got != 1 {
		t.Fatalf("placeholder transform failed:\n%s", tr)
	}
	tr.SubstitutePlaceholder(mp("user_mentions[pos]"), 2)
	if got := len(tr.Find(mp("user_mentions[2].id_str"))); got != 1 {
		t.Fatalf("placeholder substitution failed:\n%s", tr)
	}
}

func TestSubstituteMergesWithExistingPosition(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("ms[2].a"))
	tr.Ensure(mp("ms[pos].b"), false)
	tr.SubstitutePlaceholder(mp("ms[pos]"), 2)
	if got := len(tr.Find(mp("ms[2]"))); got != 1 {
		t.Fatalf("positions not merged:\n%s", tr)
	}
	if len(tr.Find(mp("ms[2].a"))) != 1 || len(tr.Find(mp("ms[2].b"))) != 1 {
		t.Errorf("merged position lost children:\n%s", tr)
	}
}

func TestRemoveAtAndPrune(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("tweets[2].text"))
	tr.EnsureContributing(mp("tweets[3].text"))
	tr.EnsureContributing(mp("user.id_str"))
	tr.RemoveAt(mp("tweets"))
	if tr.Root.childK(nkey{name: "tweets"}) != nil {
		t.Error("RemoveAt left the node")
	}
	if len(tr.Find(mp("user.id_str"))) != 1 {
		t.Error("RemoveAt removed unrelated nodes")
	}
}

func TestMergeTrees(t *testing.T) {
	a := NewTree()
	a.EnsureContributing(mp("x.y"))
	a.Find(mp("x.y"))[0].MarkManip(1)
	b := NewTree()
	b.Ensure(mp("x.z"), false)
	b.Find(mp("x.z"))[0].MarkAccess(2)
	a.Merge(b)
	if len(a.Find(mp("x.y"))) != 1 || len(a.Find(mp("x.z"))) != 1 {
		t.Fatalf("merge lost nodes:\n%s", a)
	}
	if !a.Root.childK(nkey{name: "x"}).Contributing {
		t.Error("merge must not downgrade contributing")
	}
	// b unchanged by the merge.
	if len(b.Find(mp("x.y"))) != 0 {
		t.Error("merge mutated the source tree")
	}
}

func TestPruneToSchema(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("a.x"))
	tr.EnsureContributing(mp("b"))
	tr.EnsureContributing(mp("c"))
	tr.PruneToSchema([]string{"a", "c"})
	if tr.Root.childK(nkey{name: "b"}) != nil || tr.Root.childK(nkey{name: "a"}) == nil || tr.Root.childK(nkey{name: "c"}) == nil {
		t.Errorf("prune wrong:\n%s", tr)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("a.b"))
	cl := tr.Clone()
	cl.EnsureContributing(mp("a.c"))
	cl.Find(mp("a.b"))[0].MarkAccess(1)
	if len(tr.Find(mp("a.c"))) != 0 {
		t.Error("clone shares children")
	}
	if len(tr.Find(mp("a.b"))[0].Access) != 0 {
		t.Error("clone shares mark slices")
	}
}

func TestTreeStringRendering(t *testing.T) {
	tr := NewTree()
	tr.EnsureContributing(mp("user.id_str"))
	tr.AccessPath(mp("retweet_cnt"), 2)
	s := tr.String()
	for _, want := range []string{"user (contributing)", "id_str (contributing)", "retweet_cnt (influencing) accessed:[2]"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	tr.Opaque = true
	if !strings.Contains(tr.String(), "opaque") {
		t.Error("opaque flag not rendered")
	}
}

func TestPathString(t *testing.T) {
	tr := NewTree()
	n := tr.EnsureContributing(mp("tweets[2].text"))
	if got := n.PathString(); got != "tweets[2].text" {
		t.Errorf("PathString = %q", got)
	}
	leaves := tr.Leaves()
	if _, ok := leaves["tweets[2].text"]; !ok || len(leaves) != 1 {
		t.Errorf("Leaves = %v", leaves)
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
