package compress

import (
	"math"
	"testing"
)

func TestMergeTruncateSumsAndKeepsLargest(t *testing.T) {
	a := []sparsePair{{idx: 1, val: 5}, {idx: 2, val: -1}}
	b := []sparsePair{{idx: 1, val: 3}, {idx: 4, val: -7}}
	got := mergeTruncate(a, b, 2)
	if len(got) != 2 {
		t.Fatalf("got %d pairs", len(got))
	}
	// Sums: idx1=8, idx2=-1, idx4=-7 → keep idx1 and idx4, index order.
	if got[0].idx != 1 || math.Abs(got[0].val-8) > 1e-12 {
		t.Fatalf("first pair wrong: %+v", got[0])
	}
	if got[1].idx != 4 || math.Abs(got[1].val+7) > 1e-12 {
		t.Fatalf("second pair wrong: %+v", got[1])
	}
}

func TestMergeTruncateDeterministicOnTies(t *testing.T) {
	a := []sparsePair{{idx: 3, val: 2}, {idx: 1, val: -2}}
	b := []sparsePair{{idx: 7, val: 2}}
	x := mergeTruncate(a, b, 2)
	y := mergeTruncate(b, a, 2)
	if len(x) != len(y) {
		t.Fatal("tie-breaking must be order-independent")
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("merge order changed result: %v vs %v", x, y)
		}
	}
}

// pairHub simulates a hypercube group in-process with FIFO per-pair
// mailboxes (per (sender, receiver), matching Transport semantics — a
// single per-receiver inbox would let a fast worker's next-round message
// overtake a slow peer's current-round message).
type pairHub struct {
	p       int
	inboxes [][]chan []byte // inboxes[from][to]
}

func newPairHub(p int) *pairHub {
	h := &pairHub{p: p, inboxes: make([][]chan []byte, p)}
	for i := range h.inboxes {
		h.inboxes[i] = make([]chan []byte, p)
		for j := range h.inboxes[i] {
			h.inboxes[i][j] = make(chan []byte, 8)
		}
	}
	return h
}

// hubView is one worker's PairwiseCollectives endpoint.
type hubView struct {
	h    *pairHub
	rank int
}

func (v *hubView) AllReduceSum(buf []float64) error { return nil }
func (v *hubView) AllGather(local []byte) (Gathered, error) {
	// Not used on the hypercube path.
	return PayloadList{local}, nil
}
func (v *hubView) Size() int { return v.h.p }
func (v *hubView) Rank() int { return v.rank }
func (v *hubView) ExchangeWith(peer int, data []byte) ([]byte, error) {
	v.h.inboxes[v.rank][peer] <- append([]byte(nil), data...)
	return <-v.h.inboxes[peer][v.rank], nil
}

func TestGTopKHypercubeAgreementAndSemantics(t *testing.T) {
	const n, k, p = 32, 4, 4
	grads := make([][]float64, p)
	dense := make([]float64, n)
	for w := 0; w < p; w++ {
		grads[w] = make([]float64, n)
		// Give each worker a distinct spike plus shared mass at index 0.
		grads[w][0] = 10
		grads[w][w+1] = float64(5 + w)
		for i := range grads[w] {
			dense[i] += grads[w][i]
		}
	}
	hub := newPairHub(p)
	states := make([]*GTopK, p)
	results := make([][]float64, p)
	done := make(chan error, p)
	for w := 0; w < p; w++ {
		states[w] = NewGTopK(n, k, false, int64(w))
		go func(w int) {
			g := append([]float64(nil), grads[w]...)
			err := states[w].CompressStep(0, g, &hubView{h: hub, rank: w})
			results[w] = g
			done <- err
		}(w)
	}
	for w := 0; w < p; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All workers agree.
	for w := 1; w < p; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d disagrees at %d", w, i)
			}
		}
	}
	// Exactly <= k nonzeros, and index 0 (the globally largest sum, 40)
	// must be kept with value mean 10.
	nz := 0
	for i, v := range results[0] {
		if v != 0 {
			nz++
			if i == 0 && math.Abs(v-10) > 1e-12 {
				t.Fatalf("index 0 should be the mean 10, got %v", v)
			}
		}
	}
	if nz == 0 || nz > k {
		t.Fatalf("global nonzeros %d, want in (0,%d]", nz, k)
	}
	if results[0][0] == 0 {
		t.Fatal("index 0 must survive the tournament")
	}
}

func TestGTopKFallbackNonPowerOfTwo(t *testing.T) {
	// Size 1 uses the all-gather fallback (p=1, p&(p-1)==0 but p==1 skips
	// the hypercube loop? p=1: condition p>1 false → fallback).
	const n, k = 16, 3
	g := NewGTopK(n, k, true, 1)
	grad := make([]float64, n)
	grad[2] = 5
	grad[7] = -9
	grad[11] = 1
	if err := g.CompressStep(0, grad, &hubView{h: newPairHub(1), rank: 0}); err != nil {
		t.Fatal(err)
	}
	if grad[7] != -9 || grad[2] != 5 {
		t.Fatalf("single-worker gtopk should keep top coordinates: %v", grad)
	}
}

func TestGTopKErrorFeedbackRecredit(t *testing.T) {
	// Two workers, k=1: worker 0's second-best coordinate loses the
	// tournament and must return to its error memory.
	const n, k, p = 8, 1, 2
	hub := newPairHub(p)
	g0 := NewGTopK(n, k, true, 0)
	g1 := NewGTopK(n, k, true, 1)
	grads := [][]float64{
		{0, 4, 0, 0, 0, 0, 0, 0}, // worker 0 picks idx 1
		{0, 0, 9, 0, 0, 0, 0, 0}, // worker 1 picks idx 2 (wins globally)
	}
	done := make(chan error, p)
	outs := make([][]float64, p)
	for w, st := range []*GTopK{g0, g1} {
		go func(w int, st *GTopK) {
			buf := append([]float64(nil), grads[w]...)
			err := st.CompressStep(0, buf, &hubView{h: hub, rank: w})
			outs[w] = buf
			done <- err
		}(w, st)
	}
	for i := 0; i < p; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Global winner is idx 2 with mean 4.5.
	for w := 0; w < p; w++ {
		if math.Abs(outs[w][2]-4.5) > 1e-12 {
			t.Fatalf("worker %d: winner value %v want 4.5", w, outs[w][2])
		}
		if outs[w][1] != 0 {
			t.Fatal("losing coordinate must not appear in the update")
		}
	}
	// Worker 0's idx-1 mass returns to its error memory; worker 1's memory
	// stays empty at idx 2 (it was delivered).
	if math.Abs(g0.inner.err[1]-4) > 1e-12 {
		t.Fatalf("worker 0 err[1]=%v want 4 (re-credited)", g0.inner.err[1])
	}
	if g1.inner.err[2] != 0 {
		t.Fatalf("worker 1 err[2]=%v want 0 (delivered)", g1.inner.err[2])
	}
}

func TestGTopKRejectsBadLength(t *testing.T) {
	g := NewGTopK(8, 2, true, 1)
	if err := g.CompressStep(0, make([]float64, 5), &hubView{h: newPairHub(1), rank: 0}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestGTopKParses(t *testing.T) {
	spec, err := ParseSpec("gtop-k")
	if err != nil || spec.Name != "gtopk" {
		t.Fatalf("ParseSpec gtop-k: %v %v", spec, err)
	}
	f, err := Lookup(spec.Name)
	if err != nil || f.Info().Display != "gTop-k SGD" {
		t.Fatalf("display name: %v", err)
	}
}
