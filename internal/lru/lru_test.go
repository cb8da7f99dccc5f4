package lru

import (
	"slices"
	"testing"
)

// keys lists t's keys as Each visits them: most recently used first.
func keys[V any](t *Table[string, V]) []string {
	var out []string
	t.Each(func(k string, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

func evictedKeys[V any](ev []Entry[string, V]) []string {
	var out []string
	for _, e := range ev {
		out = append(out, e.Key)
	}
	return out
}

func TestCountBound(t *testing.T) {
	tb := New[string, int](3, 0, nil)
	for i, k := range []string{"a", "b", "c"} {
		if ev := tb.Put(k, i); ev != nil {
			t.Fatalf("Put(%s) under the bound evicted %v", k, ev)
		}
	}
	tb.Get("a") // a is now the most recently used; b the least
	ev := tb.Put("d", 3)
	if len(ev) != 1 || ev[0] != (Entry[string, int]{Key: "b", Value: 1}) {
		t.Fatalf("Put(d) evicted %v, want [{b 1}]", ev)
	}
	if got, want := keys(tb), []string{"d", "a", "c"}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if _, ok := tb.Get("b"); ok || tb.Len() != 3 {
		t.Fatalf("evicted key still present or Len %d != 3", tb.Len())
	}
}

func TestByteBound(t *testing.T) {
	tb := New[string](10, 10, func(v int) int64 { return int64(v) })
	tb.Put("a", 3)
	tb.Put("b", 3)
	tb.Put("c", 3)
	// 9 bytes held; 5 more must drop the two oldest to get back under 10.
	ev := tb.Put("d", 5)
	if got, want := evictedKeys(ev), []string{"a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("evicted %v, want %v oldest first", got, want)
	}
	if tb.Bytes() != 8 || tb.Len() != 2 {
		t.Fatalf("Bytes %d Len %d, want 8 and 2", tb.Bytes(), tb.Len())
	}
}

func TestNewestSurvivesItsOwnPut(t *testing.T) {
	tb := New[string](4, 10, func(v int) int64 { return int64(v) })
	tb.Put("a", 2)
	tb.Put("b", 2)
	ev := tb.Put("huge", 50)
	if got, want := evictedKeys(ev), []string{"a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
	if v, ok := tb.Peek("huge"); !ok || v != 50 || tb.Len() != 1 || tb.Bytes() != 50 {
		t.Fatalf("oversized newest entry: %d %v, Len %d Bytes %d; want it kept alone", v, ok, tb.Len(), tb.Bytes())
	}
	// The next Put evicts it like any other oldest entry.
	if ev := tb.Put("c", 1); len(ev) != 1 || ev[0].Key != "huge" {
		t.Fatalf("Put(c) evicted %v, want [huge]", ev)
	}

	one := New[string, int](1, 0, nil)
	one.Put("x", 1)
	if ev := one.Put("y", 2); len(ev) != 1 || ev[0].Key != "x" {
		t.Fatalf("count bound 1: evicted %v, want [x]", ev)
	}
	if _, ok := one.Peek("y"); !ok {
		t.Fatal("count bound 1 dropped the entry just put")
	}
}

func TestPeekDoesNotCountAsUse(t *testing.T) {
	tb := New[string, int](2, 0, nil)
	tb.Put("a", 1)
	tb.Put("b", 2)
	if v, ok := tb.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if _, ok := tb.Peek("missing"); ok {
		t.Fatal("Peek of a missing key succeeded")
	}
	if ev := tb.Put("c", 3); len(ev) != 1 || ev[0].Key != "a" {
		t.Fatalf("evicted %v, want [a]: Peek must not refresh it", ev)
	}
	tb.Get("b")
	if ev := tb.Put("d", 4); len(ev) != 1 || ev[0].Key != "c" {
		t.Fatalf("evicted %v, want [c]: Get must refresh b", ev)
	}
}

func TestEachOrder(t *testing.T) {
	tb := New[string, int](10, 0, nil)
	for i, k := range []string{"a", "b", "c", "d"} {
		tb.Put(k, i)
	}
	tb.Get("b")
	tb.Put("c", 9) // a re-Put counts as use
	if got, want := keys(tb), []string{"c", "b", "d", "a"}; !slices.Equal(got, want) {
		t.Fatalf("Each order %v, want %v", got, want)
	}
	var visited []string
	tb.Each(func(k string, _ int) bool {
		visited = append(visited, k)
		return len(visited) < 2
	})
	if !slices.Equal(visited, []string{"c", "b"}) {
		t.Fatalf("Each did not stop when fn returned false: %v", visited)
	}
	// fn may remove the key it is given; the walk goes on past it.
	visited = nil
	tb.Each(func(k string, _ int) bool {
		visited = append(visited, k)
		if k != "d" {
			tb.Remove(k)
		}
		return true
	})
	if !slices.Equal(visited, []string{"c", "b", "d", "a"}) || !slices.Equal(keys(tb), []string{"d"}) {
		t.Fatalf("removing inside Each: visited %v, left %v; want all four visited and [d] left", visited, keys(tb))
	}
}

func TestRePutAndRemoveAdjustBytes(t *testing.T) {
	tb := New[string](10, 100, func(v int) int64 { return int64(v) })
	tb.Put("a", 10)
	tb.Put("b", 20)
	tb.Put("a", 5) // replace: 10 out, 5 in
	if tb.Bytes() != 25 || tb.Len() != 2 {
		t.Fatalf("after re-Put: Bytes %d Len %d, want 25 and 2", tb.Bytes(), tb.Len())
	}
	if v, ok := tb.Remove("b"); !ok || v != 20 {
		t.Fatalf("Remove(b) = %d, %v", v, ok)
	}
	if _, ok := tb.Remove("b"); ok {
		t.Fatal("second Remove(b) succeeded")
	}
	if tb.Bytes() != 5 || tb.Len() != 1 {
		t.Fatalf("after Remove: Bytes %d Len %d, want 5 and 1", tb.Bytes(), tb.Len())
	}
	if got := keys(tb); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("keys after Remove %v", got)
	}
	tb.Remove("a")
	if tb.Bytes() != 0 || tb.Len() != 0 || keys(tb) != nil {
		t.Fatalf("empty table: Bytes %d Len %d keys %v", tb.Bytes(), tb.Len(), keys(tb))
	}
}
