// Package lru is the serving layer's one bounded keyed table: the graph
// registry, the prefix cache, the gateway's route maps and the profile
// ring all evict through it. A Table keeps its entries in use order on a
// linked list beside a map, so every operation is O(1). It is not safe
// for concurrent use: each owner guards it with its own lock.
package lru

// Entry is one key and its value, as Put reports an eviction.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
}

type node[K comparable, V any] struct {
	Entry[K, V]
	size       int64
	prev, next *node[K, V]
}

// Table is a bounded map with least-recently-used eviction. Use New; a
// Table must not be copied.
type Table[K comparable, V any] struct {
	maxLen   int
	maxBytes int64
	size     func(V) int64
	index    map[K]*node[K, V]
	root     node[K, V] // sentinel: root.next is the most recently used entry
	bytes    int64
}

// New returns an empty table holding at most maxLen entries and, when
// size is non-nil and maxBytes positive, at most maxBytes of size(value)
// summed over its entries.
func New[K comparable, V any](maxLen int, maxBytes int64, size func(V) int64) *Table[K, V] {
	t := &Table[K, V]{maxLen: maxLen, maxBytes: maxBytes, size: size, index: make(map[K]*node[K, V])}
	t.root.prev, t.root.next = &t.root, &t.root
	return t
}

// Get returns key's value and marks it most recently used.
func (t *Table[K, V]) Get(key K) (v V, ok bool) {
	n, ok := t.index[key]
	if ok {
		t.unlink(n)
		t.pushFront(n)
		v = n.Value
	}
	return v, ok
}

// Peek returns key's value without marking it used.
func (t *Table[K, V]) Peek(key K) (v V, ok bool) {
	n, ok := t.index[key]
	if ok {
		v = n.Value
	}
	return v, ok
}

// Put stores value under key as the most recently used entry, replacing
// any value key held, and returns the entries it evicted to restore the
// bounds, oldest first. It never evicts the entry it just stored, so a
// value larger than the byte bound is kept, alone.
func (t *Table[K, V]) Put(key K, value V) (evicted []Entry[K, V]) {
	n, ok := t.index[key]
	if ok {
		t.unlink(n)
		t.bytes -= n.size
	} else {
		n = &node[K, V]{Entry: Entry[K, V]{Key: key}}
		t.index[key] = n
	}
	n.Value, n.size = value, 0
	if t.size != nil {
		n.size = t.size(value)
	}
	t.bytes += n.size
	t.pushFront(n)
	for len(t.index) > 1 && (len(t.index) > t.maxLen || t.maxBytes > 0 && t.bytes > t.maxBytes) {
		oldest := t.root.prev
		t.remove(oldest)
		evicted = append(evicted, oldest.Entry)
	}
	return evicted
}

// Remove deletes key and returns the value it held.
func (t *Table[K, V]) Remove(key K) (v V, ok bool) {
	n, ok := t.index[key]
	if ok {
		t.remove(n)
		v = n.Value
	}
	return v, ok
}

// Len returns the number of entries.
func (t *Table[K, V]) Len() int { return len(t.index) }

// Bytes returns the summed size of the values; 0 without a size function.
func (t *Table[K, V]) Bytes() int64 { return t.bytes }

// Each calls fn on every entry, most recently used first, until fn
// returns false. It marks nothing used. fn may Remove the key it is given,
// and must not otherwise modify the table.
func (t *Table[K, V]) Each(fn func(key K, value V) bool) {
	for n := t.root.next; n != &t.root; {
		next := n.next
		if !fn(n.Key, n.Value) {
			return
		}
		n = next
	}
}

func (t *Table[K, V]) remove(n *node[K, V]) {
	t.unlink(n)
	delete(t.index, n.Key)
	t.bytes -= n.size
}

func (t *Table[K, V]) unlink(n *node[K, V]) { n.prev.next, n.next.prev = n.next, n.prev }

func (t *Table[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &t.root, t.root.next
	n.prev.next, n.next.prev = n, n
}
