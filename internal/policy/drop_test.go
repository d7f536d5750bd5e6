package policy

import "testing"

// TestInvalidateDropsWholeTree checks that DropVersion drops every node of a
// version's tree, counts them as invalidated, and leaves other trees alone.
func TestInvalidateDropsWholeTree(t *testing.T) {
	c := New(0)
	k := Key{Instance: "inst", Version: 1, Strategy: "⋉"}
	other := Key{Instance: "other", Version: 1, Strategy: "⋉"}
	c.Publish(k, nil, 0, Node{Chosen: 1})
	c.Publish(k, AppendEdge(nil, 1, true), 0, Node{Chosen: 2})
	c.Publish(other, nil, 0, Node{Chosen: 9})

	if trees, nodes := c.DropVersion("inst", 1); trees != 1 || nodes != 2 {
		t.Fatalf("DropVersion = %d trees, %d nodes; want 1, 2", trees, nodes)
	}
	if _, ok := c.Lookup(k, nil, 0); ok {
		t.Error("dropped root still resident")
	}
	if _, ok := c.Lookup(k, AppendEdge(nil, 1, true), 0); ok {
		t.Error("dropped node still resident")
	}
	if n, ok := c.Lookup(other, nil, 0); !ok || n.Chosen != 9 {
		t.Error("unrelated tree was touched")
	}
	if st := c.Stats(); st.Invalidated != 2 || st.Nodes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if trees, nodes := c.DropVersion("inst", 1); trees != 0 || nodes != 0 {
		t.Fatalf("second DropVersion = %d trees, %d nodes; want 0, 0", trees, nodes)
	}
}

// TestTreesListsResidentVersionTrees checks that DropVersion picks out exactly
// the resident trees of one instance version, one per strategy and seed, and
// keeps older versions and other instances.
func TestTreesListsResidentVersionTrees(t *testing.T) {
	c := New(0)
	bu := Key{Instance: "a", Version: 3, Strategy: "BU"}
	rnd := Key{Instance: "a", Version: 3, Strategy: "RND", Seed: 7}
	older := Key{Instance: "a", Version: 2, Strategy: "BU"}
	other := Key{Instance: "b", Version: 3, Strategy: "BU"}
	c.Publish(bu, nil, 0, Node{Chosen: 1})
	c.Publish(bu, AppendEdge(nil, 1, true), 0, Node{Chosen: 2})
	c.Publish(rnd, nil, 4, Node{Chosen: 0, RNGAfter: 5})
	c.Publish(older, nil, 0, Node{Chosen: 8})
	c.Publish(other, nil, 0, Node{Chosen: 9})

	if trees, nodes := c.DropVersion("a", 3); trees != 2 || nodes != 3 {
		t.Fatalf("DropVersion = %d trees, %d nodes; want 2, 3", trees, nodes)
	}
	if _, ok := c.Lookup(rnd, nil, 4); ok {
		t.Error("dropped RND node still resident")
	}
	if n, ok := c.Lookup(older, nil, 0); !ok || n.Chosen != 8 {
		t.Error("another version of the instance was touched")
	}
	if n, ok := c.Lookup(other, nil, 0); !ok || n.Chosen != 9 {
		t.Error("another instance was touched")
	}
}
