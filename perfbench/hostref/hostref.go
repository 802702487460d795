// Package hostref is the benchmark's host-speed reference kernel. It
// imports only the standard library, so no change to the compiler can
// change its speed: when its time moves between runs, the host moved.
//
// One Run looks up pseudo-random keys in a 64Ki-entry Go map and sorts a
// 16Ki-element slice: hashing, cache-missing loads and branchy compares,
// the same kinds of work as the compiler's edge-set lookups and sorts and
// the daemon's JSON and canonical-form code. On a shared host this tracks
// the drift of those workloads more closely than a pure memory-latency or
// pure arithmetic loop does.
package hostref

import (
	"slices"
	"time"
)

const (
	mapLen  = 1 << 16
	lookups = 1 << 15
	sortLen = 1 << 14
)

// Kernel holds the pre-built map and slices; Run allocates nothing.
type Kernel struct {
	m        map[uint64]uint32
	src, buf []int32
	sink     uint64 // folds every result, so no loop is dead code
}

// New builds the kernel's data from a fixed seed, so every Kernel does
// identical work.
func New() *Kernel {
	k := &Kernel{m: make(map[uint64]uint32, mapLen), src: make([]int32, sortLen), buf: make([]int32, sortLen)}
	x := uint64(88172645463325252)
	for i := 0; i < mapLen; i++ {
		x = xorshift(x)
		k.m[x>>20] = uint32(i)
	}
	for i := range k.src {
		x = xorshift(x)
		k.src[i] = int32(x)
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Run executes one fixed unit of work and returns its wall time.
func (k *Kernel) Run() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var h uint64
	for i := 0; i < lookups; i++ {
		x = xorshift(x)
		if v, ok := k.m[x>>20]; ok {
			h += uint64(v)
		}
	}
	copy(k.buf, k.src)
	slices.Sort(k.buf)
	k.sink += h + uint64(k.buf[sortLen/2])
	return time.Since(t0)
}
