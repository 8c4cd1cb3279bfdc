package netsim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/sim"
)

// refHeap adapts a completion slice to container/heap, the oracle the
// typed completionHeap must match pop for pop.
type refHeap []completion

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return completionHeap(h).less(i, j) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestCompletionHeapOrder drives random interleaved push/pop/init
// sequences through the typed heap and container/heap and demands the
// same pop sequence. Keys are drawn from a tiny (at, id) space so
// duplicate keys with different versions are common: the heap order
// among equal keys is whatever sift-up/sift-down leave, so only an
// identical algorithm reproduces it.
func TestCompletionHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x4EA9))
	for trial := 0; trial < 200; trial++ {
		var got completionHeap
		var want refHeap
		var ver uint32
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(100); {
			case r < 55:
				ver++
				c := completion{at: sim.Time(rng.Intn(6)), id: rng.Intn(4), ver: ver}
				got.push(c)
				heap.Push(&want, c)
			case r < 95:
				if len(want) == 0 {
					continue
				}
				g, w := got.pop(), heap.Pop(&want).(completion)
				if g != w {
					t.Fatalf("trial %d op %d: pop %+v, container/heap %+v", trial, op, g, w)
				}
			default:
				// Drop a random suffix and shuffle the rest, as compaction
				// hands init an arbitrary slice.
				n := rng.Intn(len(want) + 1)
				want = want[:n]
				rng.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				got = append(got[:0], want...)
				got.init()
				heap.Init(&want)
			}
			if !slices.Equal(got, completionHeap(want)) {
				t.Fatalf("trial %d op %d: heap layout diverged from container/heap", trial, op)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(completion); g != w {
				t.Fatalf("trial %d drain: pop %+v, container/heap %+v", trial, g, w)
			}
		}
	}
}
