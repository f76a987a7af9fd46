package pvfs

import (
	"errors"
	"math"
	"sort"
)

func float64ToBits(f float64) uint64   { return math.Float64bits(f) }
func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// sortedIndex returns the indices 0..n-1 in ascending order of key.
func sortedIndex(n int, key func(i int) int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
	return order
}
