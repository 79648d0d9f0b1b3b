package sat

// varHeap is a binary max-heap of variable indices ordered by activity,
// with position tracking so that activities can be bumped in place.
type varHeap struct {
	act   *[]float64
	heap  []int
	index []int // index[v] = position of v in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

func (h *varHeap) less(a, b int) bool {
	return (*h.act)[h.heap[a]] > (*h.act)[h.heap[b]]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) contains(v int) bool {
	return v < len(h.index) && h.index[v] >= 0
}

// insert adds v if absent.
func (h *varHeap) insert(v int) {
	for len(h.index) <= v {
		h.index = append(h.index, -1)
	}
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

// clear empties the heap, keeping the backing arrays for reuse.
// insert re-extends index as variables come back.
func (h *varHeap) clear() {
	h.heap = h.heap[:0]
	h.index = h.index[:0]
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v int) {
	if h.contains(v) {
		h.up(h.index[v])
	}
}

// pop removes and returns the maximum-activity variable.
func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.index[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.index[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.index[h.heap[i]] = i
	h.index[h.heap[j]] = j
}
