package topo

import "testing"

// These tests pin bfsPartition, the BFS-greedy partitioner behind
// BlockOrder's CSR case: balanced blocks, and a cut no worse than striping
// (materially better on graphs with neighborhood structure).

// cutFraction reports the fraction of directed edges of a CSR graph whose
// endpoints have different owners — the partition-quality measure.
func cutFraction(g *AdjGraph, owner []int32) float64 {
	if len(g.adj) == 0 {
		return 0
	}
	cut := 0
	for v := 0; v < g.Size(); v++ {
		for _, w := range g.adj[g.off[v]:g.off[v+1]] {
			if owner[v] != owner[w] {
				cut++
			}
		}
	}
	return float64(cut) / float64(len(g.adj))
}

// checkPartition validates the structural contract: every node owned, owner
// ids in [0, s), block sizes within one of each other.
func checkPartition(t *testing.T, owner []int32, s int) {
	t.Helper()
	counts := make([]int, s)
	for v, b := range owner {
		if b < 0 || int(b) >= s {
			t.Fatalf("node %d has owner %d outside [0, %d)", v, b, s)
		}
		counts[b]++
	}
	lo, hi := len(owner), 0
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 1 {
		t.Fatalf("unbalanced partition: block sizes range %d..%d", lo, hi)
	}
}

func TestPartitionBalancedBlocks(t *testing.T) {
	for _, n := range []int{8, 100, 1000} {
		g, err := NewRandomRegular(n, 4, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int{1, 2, 3, 8, n} {
			checkPartition(t, bfsPartition(g, s), s)
		}
	}
}

// TestPartitionContiguousForBlockTopologies checks that ring blocks are
// contiguous id ranges (the identity order), which cut only the seams.
func TestPartitionContiguousForBlockTopologies(t *testing.T) {
	ring, err := NewRing(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	perm, off := BlockOrder(ring, 250)
	if perm != nil {
		t.Fatal("ring blocks should use the identity order")
	}
	if len(off) != 5 {
		t.Fatalf("ring of 1000 at target 250: %d blocks, want 4", len(off)-1)
	}
	owner := make([]int32, 1000)
	for b := 0; b+1 < len(off); b++ {
		for v := off[b]; v < off[b+1]; v++ {
			owner[v] = int32(b)
		}
	}
	checkPartition(t, owner, 4)
	// A contiguous 4-block partition of a width-2 ring cuts only the 8
	// boundary edges per seam, 4 seams: 2·2·2·4 = 32 directed cut edges of
	// 4000 total.
	cross := 0
	for v := 0; v < 1000; v++ {
		for d := -2; d <= 2; d++ {
			if d == 0 {
				continue
			}
			w := (v + d + 1000) % 1000
			if owner[v] != owner[w] {
				cross++
			}
		}
	}
	if cross > 32 {
		t.Fatalf("ring cut edges = %d, want <= 32", cross)
	}
}

func TestPartitionBFSBeatsStriping(t *testing.T) {
	g, err := NewRandomRegular(4000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const s = 8
	owner := bfsPartition(g, s)
	checkPartition(t, owner, s)

	// Striped assignment v % s: expected cut fraction (s-1)/s ≈ 0.875 on a
	// random-regular graph. BFS-greedy should do no worse; on a random
	// 4-regular graph locality is weak, so only require parity, and pin
	// determinism instead.
	striped := make([]int32, g.Size())
	for v := range striped {
		striped[v] = int32(v % s)
	}
	bfsCut, stripedCut := cutFraction(g, owner), cutFraction(g, striped)
	if bfsCut > stripedCut {
		t.Fatalf("BFS cut %.3f worse than striped %.3f", bfsCut, stripedCut)
	}

	// Determinism: same graph, same s, same assignment.
	again := bfsPartition(g, s)
	for v := range owner {
		if owner[v] != again[v] {
			t.Fatalf("partition not deterministic at node %d", v)
		}
	}
}

func TestPartitionBFSLocalityOnTorusCSR(t *testing.T) {
	// A torus expressed as a CSR graph has strong locality; BFS-greedy must
	// get a materially lower cut than striping.
	const rows, cols = 64, 64
	var edges [][2]int32
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := int32(r*cols + c)
			right := int32(r*cols + (c+1)%cols)
			down := int32(((r+1)%rows)*cols + c)
			edges = append(edges, [2]int32{v, right}, [2]int32{v, down})
		}
	}
	g := newCSR("torus-csr", rows*cols, edges)
	const s = 8
	owner := bfsPartition(g, s)
	checkPartition(t, owner, s)
	striped := make([]int32, g.Size())
	for v := range striped {
		striped[v] = int32(v % s)
	}
	bfsCut, stripedCut := cutFraction(g, owner), cutFraction(g, striped)
	// Measured: BFS ≈ 0.16 vs striped 0.50 (the ideal rectangular band is
	// 0.125; BFS frontiers are ragged). Require at least a 2× win.
	if bfsCut > stripedCut/2 {
		t.Fatalf("BFS cut %.3f on torus CSR, want < %.3f (striped/2, striped=%.3f)", bfsCut, stripedCut/2, stripedCut)
	}
}
