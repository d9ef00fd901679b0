package sim

import (
	"bytes"
	"testing"
)

// TestMemoryPageTable pins the two-level page table's contract: word
// and byte access across page and directory boundaries and at both
// ends of the address space, unmapped reads that see zero without
// creating a page, watches that run before the store, and
// allocation-free word access to a mapped page.
func TestMemoryPageTable(t *testing.T) {
	var m Memory // the zero value is usable

	// Unmapped reads return zero and create nothing.
	buf := []byte{1, 2, 3}
	m.ReadSegment(0x00bffffe, buf)
	if m.Read32(0x1000) != 0 || m.Read32(0x1ffe) != 0 || m.ByteAt(0x00400000) != 0 ||
		m.Read(0xfffffffe, 2) != 0 || !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatal("unmapped memory did not read as zero")
	}
	for d, dir := range m.dirs {
		if dir != nil {
			t.Fatalf("a read created directory %d", d)
		}
	}

	for _, addr := range []uint32{
		0, 0x1000, 0xfffffffc, // aligned: the bottom, a page, the top
		0x1ffe, 0x1fff, 0x003ffffe, 0x003fffff, // unaligned across a page and a directory
	} {
		v := 0xa1b2c3d4 ^ addr
		m.Write32(addr, v)
		if got := m.Read32(addr); got != v {
			t.Errorf("Read32(%#x) = %#x, want %#x", addr, got, v)
		}
		for i := uint32(0); i < 4; i++ { // big-endian bytes
			if got, want := m.ByteAt(addr+i), byte(v>>(24-8*i)); got != want {
				t.Errorf("ByteAt(%#x) = %#x, want %#x", addr+i, got, want)
			}
		}
		m.Write32(addr, 0)
	}
	if m.page(0x003ffffe, false) == nil || m.page(0x00400000, false) == nil {
		t.Error("a write across the directory boundary did not map both pages")
	}

	// Page pointers stay put once made.
	p := m.page(0x2000, true)
	m.Write32(0x2ffc, 7)
	m.LoadSegment(0x1800, make([]byte, 0x3000))
	if m.page(0x2000, false) != p {
		t.Error("a page moved")
	}

	// Watches run before the store: the watch sees the old value.
	type call struct{ addr, n, old uint32 }
	var calls []call
	m.WatchWrites(0x3000, 0x3008, func(addr, n uint32) { calls = append(calls, call{addr, n, m.Read32(0x3004)}) })
	m.WatchWrites(0xfffff000, 0xfffffffd, func(addr, n uint32) { calls = append(calls, call{addr, n, m.Read32(0xfffffffc)}) })
	m.Write32(0x3004, 0x11)
	m.Write32(0x3008, 0x22) // just past the watch: no call
	m.SetByte(0x3007, 0x33)
	m.Write32(0xfffffffc, 0x44) // a store that reaches the top of memory
	m.LoadSegment(0x2ffe, make([]byte, 0x1004))
	want := []call{
		{0x3004, 4, 0}, {0x3007, 1, 0x11}, {0xfffffffc, 4, 0},
		{0x3000, 0x1000, 0x33}, // one call per page chunk, only where it overlaps
	}
	if len(calls) != len(want) {
		t.Fatalf("watch calls = %x, want %x", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("watch call %d = %x, want %x", i, calls[i], want[i])
		}
	}

	if n := testing.AllocsPerRun(100, func() {
		m.Write32(0x1000, m.Read32(0x1000)+1)
	}); n != 0 {
		t.Errorf("Read32/Write32 on a mapped page: %v allocs, want 0", n)
	}
}

// TestMemoryDiffLowestAddress pins Diff to the lowest differing
// address, whatever order the pages were made in.
func TestMemoryDiffLowestAddress(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Write32(0x5000, 0) // a zero page on one side only
	if addr, ok := a.Diff(b); !ok {
		t.Fatalf("a zero page differs from an absent one at %#x", addr)
	}
	a.SetByte(0x5123, 1)
	if addr, ok := b.Diff(a); ok || addr != 0x5123 {
		t.Errorf("one-sided page: Diff = %#x, %v; want 0x5123", addr, ok)
	}

	c, d := NewMemory(), NewMemory()
	c.SetByte(0x00c00010, 1) // directory 3, made first
	d.SetByte(0x00400020, 2) // directory 1
	c.SetByte(0xffffffff, 3)
	for i := 0; i < 10; i++ {
		if addr, ok := c.Diff(d); ok || addr != 0x00400020 {
			t.Fatalf("two directories: Diff = %#x, %v; want 0x400020", addr, ok)
		}
	}

	e, f := NewMemory(), NewMemory()
	e.SetByte(0xffffffff, 1)
	f.SetByte(0xfffff000, 0)
	if addr, ok := e.Diff(f); ok || addr != 0xffffffff {
		t.Errorf("top page: Diff = %#x, %v; want 0xffffffff", addr, ok)
	}
}
