package main

// lruModel is a set-associative LRU cache written independently of the
// simulator's cache package: each set keeps its resident blocks ordered
// from most to least recently used. It indexes sets by the low bits of the
// 64-byte block address and allocates on every miss, the organisation the
// paper's LLC uses, so its miss count over an LLC access stream must equal
// the simulator's LRU misses on the same stream.
type lruModel struct {
	sets         [][]uint64
	ways         int
	hits, misses uint64
}

const blockBits = 6

func newLRUModel(sets, ways int) *lruModel {
	return &lruModel{sets: make([][]uint64, sets), ways: ways}
}

// access looks up one byte address and reports whether it hit.
func (m *lruModel) access(addr uint64) bool {
	block := addr >> blockBits
	set := m.sets[block%uint64(len(m.sets))]
	for i, b := range set {
		if b == block {
			copy(set[1:i+1], set[:i])
			set[0] = block
			m.hits++
			return true
		}
	}
	m.misses++
	if len(set) < m.ways {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = block
	m.sets[block%uint64(len(m.sets))] = set
	return false
}
