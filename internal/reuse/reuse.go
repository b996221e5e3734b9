// Package reuse holds the process-wide free lists through which a released
// trial hands its working state to the next trial in the process (DESIGN.md
// §7): engines, host packet pools, client RNGs, getStats sample buffers, and
// the recovery rings, send histories and region pools.
//
// The lists are not sync.Pools: no collection empties them, so what a trial
// allocates does not depend on when the GC ran. What a list holds is bounded
// by the peak number of trials the process ran at once. Whatever puts an item
// makes it indistinguishable from a new one first, so where a trial's state
// came from never shows in what it computes.
package reuse

import "sync"

var (
	mu    sync.Mutex
	lists []interface{ drop() }
)

// List is a LIFO free list, safe for use from several goroutines: the
// runner's workers take from and put into the same lists.
type List[T any] struct {
	items []T
}

// New returns an empty list that Drop empties. Declare lists at package
// level.
func New[T any]() *List[T] {
	l := &List[T]{}
	mu.Lock()
	defer mu.Unlock()
	lists = append(lists, l)
	return l
}

// Take pops the item put last, or returns the zero value when the list is
// empty: the caller builds a new one.
func (l *List[T]) Take() (x T) {
	mu.Lock()
	defer mu.Unlock()
	if n := len(l.items) - 1; n >= 0 {
		x = l.items[n]
		l.items[n] = *new(T)
		l.items = l.items[:n]
	}
	return x
}

// Put hands x to the next Take.
func (l *List[T]) Put(x T) {
	mu.Lock()
	defer mu.Unlock()
	l.items = append(l.items, x)
}

func (l *List[T]) drop() { l.items = nil }

// Drop empties every list, so the next trial builds its state anew, as the
// process's first trial does. Tests call it to start a trial cold.
func Drop() {
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lists {
		l.drop()
	}
}
