package backtrace

import (
	"strings"
	"testing"
)

func TestStructureAddLenIDs(t *testing.T) {
	b := NewStructure()
	if b.Len() != 0 {
		t.Fatal("fresh structure not empty")
	}
	t1 := NewTree()
	t1.EnsureContributing(mp("a"))
	b.Add(7, t1)
	b.Add(3, NewTree())
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
	ids := b.IDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Errorf("IDs = %v, want sorted [3 7]", ids)
	}
}

func TestStructureMergeByID(t *testing.T) {
	b := NewStructure()
	t1 := NewTree()
	t1.EnsureContributing(mp("a"))
	t2 := NewTree()
	ensure(t2, mp("b"))
	t2.Find(mp("b"))[0].MarkAccess(4)
	b.Add(5, t1)
	b.Add(5, t2)
	b.Add(9, NewTree())
	m := newMerger()
	m.addAll(b)
	merged := m.merged(nil)
	if merged.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", merged.Len())
	}
	var five *Item
	for _, it := range merged.Items {
		if it.ID == 5 {
			five = it
		}
	}
	if five == nil {
		t.Fatal("item 5 missing after merge")
	}
	if len(five.Tree.Find(mp("a"))) != 1 || len(five.Tree.Find(mp("b"))) != 1 {
		t.Errorf("merged tree lost nodes:\n%s", five.Tree)
	}
	if got := five.Tree.Find(mp("b"))[0].Access; len(got) != 1 || got[0] != 4 {
		t.Errorf("merged tree lost marks: %v", got)
	}
	// First-seen order is preserved.
	if merged.Items[0].ID != 5 || merged.Items[1].ID != 9 {
		t.Errorf("merge order changed: %v", merged.IDs())
	}
}

func TestStructureCloneIndependent(t *testing.T) {
	b := NewStructure()
	tr := NewTree()
	tr.EnsureContributing(mp("a"))
	b.Add(1, tr)
	c := b.Clone()
	c.Items[0].Tree.EnsureContributing(mp("zz"))
	c.Add(2, NewTree())
	if b.Len() != 1 {
		t.Error("clone shares item slice")
	}
	if len(b.Items[0].Tree.Find(mp("zz"))) != 0 {
		t.Error("clone shares trees")
	}
}

func TestStructureString(t *testing.T) {
	b := NewStructure()
	tr := NewTree()
	tr.EnsureContributing(mp("user.id_str"))
	b.Add(42, tr)
	s := b.String()
	for _, want := range []string{"item 42", "user (contributing)", "id_str"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{BySource: map[int]*Structure{}}
	if r.Structure(9).Len() != 0 {
		t.Error("missing source should yield empty structure")
	}
	b := NewStructure()
	b.Add(4, NewTree())
	b.Add(2, NewTree())
	r.BySource[1] = b
	if got := r.Structure(1).IDs(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("Structure(1).IDs() = %v", got)
	}
}

func TestContributingPaths(t *testing.T) {
	b := NewStructure()
	tr := NewTree()
	tr.EnsureContributing(mp("user.id_str"))
	tr.EnsureContributing(mp("text"))
	tr.AccessPath(mp("retweet_cnt"), 2) // influencing: not a cell
	b.Add(12, tr)
	cells := b.ContributingPaths()
	got := cells[12]
	if len(got) != 2 || got[0] != "text" || got[1] != "user.id_str" {
		t.Errorf("cells = %v, want [text user.id_str]", got)
	}
}
