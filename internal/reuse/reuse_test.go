package reuse

import "testing"

// TestListLIFOAndDrop: Take hands back the item put last and the zero value
// on an empty list, and Drop empties every list at once.
func TestListLIFOAndDrop(t *testing.T) {
	a, b := New[*int](), New[[]byte]()
	if a.Take() != nil || b.Take() != nil {
		t.Fatal("an empty list handed out an item")
	}
	x, y := new(int), new(int)
	a.Put(x)
	a.Put(y)
	if got := a.Take(); got != y {
		t.Fatalf("Take = %p, want the item put last (%p)", got, y)
	}
	b.Put(make([]byte, 0, 8))
	Drop()
	if a.Take() != nil || b.Take() != nil {
		t.Fatal("Drop left an item on a list")
	}
}
