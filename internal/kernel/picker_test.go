package kernel

import (
	"testing"
	"unsafe"
)

// TestEntrySize pins the lazy-heap entry at 16 bytes: the reused heap, the
// memoized base heap and every sift move whole entries, so their size is
// the picker's per-node memory and copy cost.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want 16", got)
	}
}
