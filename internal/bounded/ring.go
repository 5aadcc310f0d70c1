package bounded

// Ring is a fixed-capacity buffer that overwrites its oldest element
// once full.
type Ring[T any] struct {
	buf  []T
	next int // slot the next Push writes
	n    int // elements held
}

// NewRing returns an empty ring holding up to capacity elements;
// capacity must be positive.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v and reports whether it overwrote the oldest element.
func (r *Ring[T]) Push(v T) (overwrote bool) {
	overwrote = r.n == len(r.buf)
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if !overwrote {
		r.n++
	}
	return overwrote
}

// Len returns the number of elements held.
func (r *Ring[T]) Len() int { return r.n }

// NewestFirst returns a copy of the held elements, newest first.
func (r *Ring[T]) NewestFirst() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.at(r.n - 1 - i)
	}
	return out
}

// OldestFirst returns a copy of the held elements, oldest first.
func (r *Ring[T]) OldestFirst() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// at returns the i-th oldest held element.
func (r *Ring[T]) at(i int) T {
	return r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)]
}
