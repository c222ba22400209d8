package tensor

// Iter walks a shape in row-major order, yielding multi-indices without
// allocating per step. It is the shared traversal engine for the view
// transforms in this package and for the reference executor in
// internal/restructure.
type Iter struct {
	shape []int
	idx   []int
	done  bool
	first bool
}

// NewIter creates an iterator over shape. Iteration covers the whole
// index space; an empty shape (scalar) yields exactly one index.
func NewIter(shape []int) *Iter {
	it := &Iter{
		shape: append([]int(nil), shape...),
		idx:   make([]int, len(shape)),
		first: true,
	}
	for _, d := range shape {
		if d == 0 {
			it.done = true
		}
	}
	return it
}

// Next advances to the next index, reporting false when exhausted.
func (it *Iter) Next() bool {
	if it.done {
		return false
	}
	if it.first {
		it.first = false
		return true
	}
	for i := len(it.idx) - 1; i >= 0; i-- {
		it.idx[i]++
		if it.idx[i] < it.shape[i] {
			return true
		}
		it.idx[i] = 0
	}
	it.done = true
	return false
}

// Index returns the current multi-index. The slice is reused across
// Next calls; copy it if it must survive.
func (it *Iter) Index() []int { return it.idx }
