// Package a exercises hotalloc: functions annotated //stcc:hotpath
// must not allocate in steady state.
package a

import "fmt"

type sink interface{ accept() }

type box struct{ n int }

func (box) accept() {}

type ring struct {
	buf  []int
	vals []box
	b    box
}

func consume(s sink) { s.accept() }

// hotOK uses only the audited idioms: self-append into retained
// capacity, value struct literals, pointer-shaped interface
// conversions, panic-path formatting, and a suppressed reviewed
// growth site.
//
//stcc:hotpath
func (r *ring) hotOK(v int) {
	r.buf = append(r.buf, v)
	r.vals = append(r.vals, box{n: v})
	if v < 0 {
		panic(fmt.Sprintf("bad value %d", v))
	}
	consume(&r.b)
	if len(r.buf) == cap(r.buf) {
		//stcc:hotalloc amortized ring growth, audited by the alloc gates
		grown := make([]int, 2*cap(r.buf))
		copy(grown, r.buf)
		r.buf = grown[:len(r.buf)]
	}
}

// hotBad trips every allocating construct the analyzer knows about.
//
//stcc:hotpath
func (r *ring) hotBad(v int, other []int) string {
	grown := make([]int, 8)      // want `make in hot path allocates`
	r.buf = append(other, v)     // want `only the self-append form`
	m := map[int]string{}        // want `map literal in hot path allocates`
	p := &box{n: v}              // want `&box\{\.\.\.\} in hot path heap-allocates`
	q := new(box)                // want `new in hot path allocates`
	lit := []int{v}              // want `slice literal in hot path allocates`
	consume(r.b)                 // want `passing repro/internal/analyzers/testdata/src/hotalloc/a\.box to an interface parameter boxes it`
	f := func() int { return v } // want `closure literal in hot path`
	s := fmt.Sprint(v)           // want `fmt\.Sprint in hot path allocates`
	s = s + "x"                  // want `string concatenation in hot path`
	bs := []byte(s)              // want `conversion in hot path copies`
	_, _, _, _, _, _ = grown, m, p, q, lit, bs
	_ = f
	return s
}

// coldSetup carries no annotation: allocations off the hot path are
// fine.
func coldSetup(n int) []int {
	out := make([]int, 0, n)
	out = append(out, n)
	m := map[int]int{n: n}
	_ = m
	return out
}
